package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// fullSuite returns one tiny instance of every registered benchmark.
func fullSuite() []Benchmark {
	return NewSuite(ScaleTiny)
}

// TestStatsAccounting: for every app, the Fig 14 cycle breakdown must
// account exactly for cores x cycles, and committed cycles must dominate
// at moderate core counts (the paper's headline: "most time is spent
// executing tasks that are ultimately committed").
func TestStatsAccounting(t *testing.T) {
	for _, b := range fullSuite() {
		st, err := RunSwarm(b, core.DefaultConfig(8))
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		total := st.TotalCoreCycles()
		sum := st.CommittedCycles + st.AbortedCycles + st.SpillCycles + st.StallCycles
		if sum != total {
			t.Errorf("%s: breakdown %d != total %d", b.Name(), sum, total)
		}
		if st.CommittedCycles == 0 {
			t.Errorf("%s: no committed cycles", b.Name())
		}
		if st.Commits == 0 || st.Dequeues < st.Commits {
			t.Errorf("%s: commits=%d dequeues=%d inconsistent", b.Name(), st.Commits, st.Dequeues)
		}
		// Dispatches = commits + aborts of dispatched tasks (requeues
		// re-dispatch) + spill pseudo-dispatches; at minimum:
		if st.Dequeues < st.Commits {
			t.Errorf("%s: fewer dequeues than commits", b.Name())
		}
	}
}

// (Determinism across identical runs is covered for every registered app
// by TestRegisteredAppsDeterministic in stress_test.go, which compares
// complete core.Stats.)

// TestSeedChangesPlacementNotResults: different enqueue seeds give
// different timings but identical verified results (placement is a pure
// performance knob).
func TestSeedChangesPlacementNotResults(t *testing.T) {
	b := NewSSSP(16, 16, 3)
	cfg1 := core.DefaultConfig(8)
	cfg1.Seed = 1
	st1, err := RunSwarm(b, cfg1) // verification inside
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := core.DefaultConfig(8)
	cfg2.Seed = 999
	st2, err := RunSwarm(b, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Commits != st2.Commits {
		t.Errorf("different seeds committed different task counts: %d vs %d", st1.Commits, st2.Commits)
	}
}

// TestAllAppsAtOddMachineSizes exercises non-power-of-two and sub-tile
// machines.
func TestAllAppsAtOddMachineSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("size sweep")
	}
	for _, cores := range []int{1, 2, 12, 20} {
		b := NewSSSP(12, 12, 3)
		if _, err := RunSwarm(b, core.DefaultConfig(cores)); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}
