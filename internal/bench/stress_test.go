package bench

import (
	"reflect"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestTinyQueuesAllApps runs every registered app — the paper's six and
// later additions alike — on a miniature machine whose task and commit
// queues are a few entries deep. Queue overflow is where the rarely-hit
// machinery lives: the coalescer/splitter spill path (spill.go) and the
// FINISHING stall when a task cannot get a commit queue slot. Every run
// must still pass its host-side reference verifier, and the config must
// be tight enough that the suite actually spills.
func TestTinyQueuesAllApps(t *testing.T) {
	var totalSpills uint64
	for _, meta := range Apps() {
		b, err := New(meta.Name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(4)
		cfg.TaskQPerCore = 8
		cfg.CommitQPerCore = 2
		st, err := RunSwarm(b, cfg) // verification inside
		if err != nil {
			t.Fatalf("%s under tiny queues: %v", meta.Name, err)
		}
		totalSpills += st.SpilledTasks
	}
	if totalSpills == 0 {
		t.Error("tiny-queue config never spilled a task: stress config too lax")
	}
}

// TestRegisteredAppsDeterministic is the determinism regression test for
// the silo/bloom class of bugs fixed in PR 1 (map-iteration order leaking
// into cycle counts): each registered app is built and run twice
// in-process with identical arguments, and the complete core.Stats must
// be identical — not just cycles, but aborts, queue occupancies, traffic
// and cache counters too. CI additionally runs the whole suite with
// -count=2 to catch cross-run state leaks.
func TestRegisteredAppsDeterministic(t *testing.T) {
	for _, meta := range Apps() {
		run := func() core.Stats {
			b, err := New(meta.Name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			st, err := RunSwarm(b, core.DefaultConfig(8))
			if err != nil {
				t.Fatalf("%s: %v", meta.Name, err)
			}
			return st
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identical runs produced different stats:\n%+v\nvs\n%+v", meta.Name, a, b)
		}
	}
}
