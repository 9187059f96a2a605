package bench

import (
	"reflect"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestIncSSSPPhases: the phased session solves every batch correctly
// (per-phase verification runs inside RunSwarmPhases) and the phase
// accounting is coherent: contiguous cycle ranges, commits summing to the
// cumulative count, and one phase per batch plus the initial solve.
func TestIncSSSPPhases(t *testing.T) {
	b := NewIncSSSP(10, 10, 2, 5, 3)
	phases, err := b.RunSwarmPhases(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != b.PhaseCount() {
		t.Fatalf("phases = %d, want %d", len(phases), b.PhaseCount())
	}
	var commits uint64
	for i, ph := range phases {
		if ph.Phase != i+1 {
			t.Fatalf("phase %d numbered %d", i+1, ph.Phase)
		}
		if i > 0 && ph.StartCycle != phases[i-1].EndCycle {
			t.Fatalf("phase %d starts at %d but phase %d ended at %d",
				i+1, ph.StartCycle, i, phases[i-1].EndCycle)
		}
		if ph.Cycles != ph.EndCycle-ph.StartCycle {
			t.Fatalf("phase %d cycle arithmetic: %d != %d-%d", i+1, ph.Cycles, ph.EndCycle, ph.StartCycle)
		}
		if ph.Commits == 0 {
			t.Fatalf("phase %d committed nothing", i+1)
		}
		commits += ph.Commits
	}
	last := phases[len(phases)-1].Cumulative
	if commits != last.Commits {
		t.Fatalf("phase commits sum to %d, cumulative says %d", commits, last.Commits)
	}
	// Incremental phases must be much cheaper than the initial solve:
	// that is the point of the workload.
	if phases[1].Commits >= phases[0].Commits {
		t.Fatalf("incremental phase re-ran the world: %d commits vs initial %d",
			phases[1].Commits, phases[0].Commits)
	}
}

// TestIncSSSPSerial: the serial incremental reference matches the final
// Dijkstra distances (verification inside RunSerial).
func TestIncSSSPSerial(t *testing.T) {
	b := NewIncSSSP(10, 10, 2, 5, 3)
	cyc, err := RunSerial(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("serial run took no cycles")
	}
}

// TestIncSSSPDeterministicPhases: identical sessions produce identical
// per-phase statistics — the phased-determinism contract the sweep CSVs
// rely on.
func TestIncSSSPDeterministicPhases(t *testing.T) {
	run := func() []core.PhaseStats {
		phases, err := NewIncSSSP(8, 8, 2, 4, 7).RunSwarmPhases(core.DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		return phases
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Cycles != b[i].Cycles || a[i].Events != b[i].Events ||
			a[i].Commits != b[i].Commits || a[i].Aborts != b[i].Aborts ||
			a[i].Enqueues != b[i].Enqueues || a[i].TrafficBytes != b[i].TrafficBytes {
			t.Fatalf("phase %d nondeterministic:\n  %+v\n  %+v", i+1, a[i], b[i])
		}
	}
}

// TestIncSSSPSwarmMatchesPhases: RunSwarm is the session's cumulative
// result.
func TestIncSSSPSwarmMatchesPhases(t *testing.T) {
	b := NewIncSSSP(8, 8, 2, 4, 7)
	st, err := RunSwarm(b, core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	phases, err := b.RunSwarmPhases(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	last := phases[len(phases)-1].Cumulative
	if st.Cycles != last.Cycles || st.Commits != last.Commits || st.Events != last.Events {
		t.Fatalf("RunSwarm %+v != phased cumulative %+v", st, last)
	}
}

// TestIncSSSPSession drives the live-session API step by step and checks
// it is exactly RunSwarmPhases unrolled: same phase statistics, correct
// Done/Remaining accounting, cumulative snapshots at each quiescent
// point, and a loud error past the last phase.
func TestIncSSSPSession(t *testing.T) {
	b := NewIncSSSP(10, 10, 2, 5, 3)
	want, err := b.RunSwarmPhases(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	s, err := b.OpenSession(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.App() != "incsssp" || s.PhaseCount() != b.PhaseCount() || s.Done() != 0 {
		t.Fatalf("fresh session: app=%q total=%d done=%d", s.App(), s.PhaseCount(), s.Done())
	}
	for k := 0; s.Remaining() > 0; k++ {
		ph, err := s.Step()
		if err != nil {
			t.Fatalf("step %d: %v", k+1, err)
		}
		if !reflect.DeepEqual(ph, want[k]) {
			t.Fatalf("step %d stats diverge from RunSwarmPhases", k+1)
		}
		if s.Done() != k+1 {
			t.Fatalf("after step %d: Done = %d", k+1, s.Done())
		}
		if got := s.Stats(); got.Cycles != ph.Cumulative.Cycles || got.Commits != ph.Cumulative.Commits {
			t.Fatalf("step %d: session snapshot disagrees with the phase's cumulative stats", k+1)
		}
	}
	if !reflect.DeepEqual(s.Phases(), want) {
		t.Fatal("session phases diverge from RunSwarmPhases")
	}
	if _, err := s.Step(); err == nil {
		t.Fatal("stepping past the last phase: want an error")
	}
}

// TestRegistryPhasedMeta: the Phased metadata bit agrees with the
// constructed benchmark's interfaces for every registered app, and every
// Sessioned app is also marked Phased.
func TestRegistryPhasedMeta(t *testing.T) {
	for _, meta := range Apps() {
		b, err := New(meta.Name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		_, isPhased := b.(Phased)
		if meta.Phased != isPhased {
			t.Errorf("%s: meta.Phased = %v but benchmark implements Phased = %v", meta.Name, meta.Phased, isPhased)
		}
		if _, isSessioned := b.(Sessioned); isSessioned && !isPhased {
			t.Errorf("%s: Sessioned but not Phased", meta.Name)
		}
	}
}
