package core_test

import (
	"reflect"
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
)

// TestWay0IndexDifferential runs kcore and msf on 64 cores twice — with
// the way-0 conflict index, and with it dropped so every conflict check
// scans all resident tasks — and demands identical Stats. The unbounded
// cell lets commit queues grow until tile slot ids pass 128, so the
// index's stride grows mid-run.
func TestWay0IndexDifferential(t *testing.T) {
	cells := []struct {
		name      string
		app       func() bench.SwarmApp
		unbounded bool
	}{
		{"kcore", func() bench.SwarmApp { return bench.NewKCore(8, 8, 9).SwarmApp() }, false},
		{"msf", func() bench.SwarmApp { return bench.NewMSF(8, 8, 5).SwarmApp() }, false},
		{"kcore-unbounded", func() bench.SwarmApp { return bench.NewKCore(9, 12, 9).SwarmApp() }, true},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.DefaultConfig(64)
			cfg.UnboundedQueues = c.unbounded
			run := func(scan bool) (core.Stats, int) {
				app := c.app()
				m, err := core.NewMachine(cfg, program(app))
				if err != nil {
					t.Fatal(err)
				}
				if scan {
					core.DropWay0Index(m)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := app.Verify(m.Mem().Load); err != nil {
					t.Fatal(err)
				}
				return st, core.Way0Stride(m)
			}
			indexed, stride := run(false)
			scanned, _ := run(true)
			if !reflect.DeepEqual(indexed, scanned) {
				t.Fatalf("stats differ between the way-0 index and the full scan:\nindex %+v\nscan  %+v", indexed, scanned)
			}
			if c.unbounded && stride <= 2 {
				t.Fatalf("stride stayed %d: slot ids never passed 128", stride)
			}
		})
	}
}

// program wraps a SwarmApp as a simulator program, as the sim backend does.
func program(app bench.SwarmApp) *core.Program {
	prog := &core.Program{}
	prog.Setup = func(m *core.Machine) {
		b := &guest.AppBuild{Alloc: m.SetupAlloc, Store: m.Mem().Store}
		roots := app.Build(b)
		prog.Fns, prog.FnNames = b.Fns(), b.Names()
		for _, d := range roots {
			m.EnqueueRootDesc(d)
		}
	}
	return prog
}
