package core

import (
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
)

// TestGuestChildRulesPanic: the simulator's task environment rejects the
// children guest.TaskDesc.Child and guest.ArgWords forbid, panicking out
// of Run with the guest package's message — the same rules the oracle
// profiler and swarm-rt apply.
func TestGuestChildRulesPanic(t *testing.T) {
	for _, c := range []struct {
		name, want string
		body       guest.TaskFn
	}{
		{"enqueue before parent", "child timestamp 4 before parent 5",
			func(e guest.TaskEnv) { e.Enqueue(0, e.Timestamp()-1) }},
		{"hinted before parent", "child timestamp 4 before parent 5",
			func(e guest.TaskEnv) { e.EnqueueHinted(0, e.Timestamp()-1, 3, [3]uint64{}) }},
		{"enqueue 4 words", "at most 3 argument words",
			func(e guest.TaskEnv) { e.Enqueue(0, e.Timestamp(), 1, 2, 3, 4) }},
		{"fork 4 words", "at most 3 argument words",
			func(e guest.TaskEnv) { e.Fork(0, 1, 2, 3, 4) }},
	} {
		m, err := NewMachine(DefaultConfig(1), &Program{
			Fns:   []guest.TaskFn{once(c.body)},
			Setup: func(m *Machine) { m.EnqueueRoot(0, 5) },
		})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if s, ok := recover().(string); !ok || !strings.Contains(s, c.want) {
					t.Errorf("%s: recovered %q, want a panic containing %q", c.name, s, c.want)
				}
			}()
			m.Run()
		}()
	}
}

// once runs body only in the root task (timestamp 5, argument 0), so a
// backend that wrongly accepts the child does not recurse forever.
func once(body guest.TaskFn) guest.TaskFn {
	return func(e guest.TaskEnv) {
		if e.Timestamp() == 5 && e.Arg(0) == 0 {
			body(e)
		}
	}
}
