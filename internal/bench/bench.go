// Package bench implements the ordered-parallelism benchmark suite: the
// paper's six applications — bfs, sssp, astar, msf, des and silo (§2.2,
// Table 4) — plus later workload additions (kcore, color, stream, ...),
// each in up to three flavors:
//
//   - a tuned serial version (the Fig 12 baseline), run in direct mode
//     (SerialApp, RunSerial);
//   - the state-of-the-art software-parallel version (PBFS, Bellman-Ford,
//     PBBS-style deterministic reservations, Chandy-Misra-Bryant, Silo,
//     bucket-synchronous peeling, deterministic-reservation coloring),
//     run on the smp machine (the Parallel interface); astar, dsssp,
//     incsssp, msort, setcover, stream and treebuild have none;
//   - the Swarm version, decomposed into tiny timestamped tasks
//     (SwarmApp, RunSwarm).
//
// All flavors operate on the same guest-memory data structures and perform
// the same algorithmic work (§5), and every run is verified against a
// host-side reference before its cycle count is trusted.
//
// Applications self-register (see Register/Apps/NewSuite in registry.go)
// with per-scale input sizes, flavor availability and figure membership,
// so the harness, the CLIs and the oracle enumerate the suite without
// hardcoded lists.
package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/backend"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
)

// Benchmark is one application in all of its flavors. An app states each
// flavor's algorithm once; RunSwarm, RunSerial and the optional Parallel
// and Phased interfaces run it.
//
// Implementations are immutable after construction (inputs, reference
// results) and every run builds a fresh simulated machine, so a
// Benchmark's methods are safe to call from concurrent host goroutines —
// the experiment harness fans independent runs out over a worker pool.
// Runs must also be deterministic: identical arguments always produce
// identical cycle counts, which is what makes host-parallel sweeps
// byte-identical to sequential ones.
type Benchmark interface {
	// Name returns the paper's benchmark name.
	Name() string
	// SwarmApp returns the machine-independent Swarm decomposition: what
	// RunSwarm executes and the oracle analyzes (Table 1).
	SwarmApp() SwarmApp
	// SerialApp returns the tuned serial implementation: what RunSerial
	// executes and the oracle's ideal-TLS analysis profiles (Table 1
	// bottom row). The body must call iterMark at each loop-iteration
	// boundary; work before the first mark (e.g. msf's edge sort) is
	// prologue, excluded from the analysis.
	SerialApp() SerialApp
}

// Parallel is implemented by benchmarks with a state-of-the-art
// software-parallel version.
type Parallel interface {
	// RunParallel executes the software-parallel version with one thread
	// per core on the smp machine and returns elapsed cycles after
	// verifying the result.
	RunParallel(nCores int) (uint64, error)
}

// SerialApp is a machine-independent sequential implementation: Build
// lays out guest memory with the setup-time primitives and returns the
// body; Verify checks the final memory state.
type SerialApp struct {
	Build  func(alloc func(uint64) uint64, store func(addr, val uint64)) func(e guest.Env, iterMark func())
	Verify func(load func(addr uint64) uint64) error
}

// SwarmApp is a machine-independent Swarm program: Build lays out guest
// memory with the build environment's setup-time primitives, registers
// named task functions (b.Fn), and returns the root tasks. Verify checks
// the final memory state.
type SwarmApp struct {
	Build  func(b *guest.AppBuild) []guest.TaskDesc
	Verify func(load func(addr uint64) uint64) error
}

// Backend builds and starts the execution backend cfg.Backend selects
// (simulator or native runtime), running the app's Build against its
// setup surface and enqueueing the roots. The returned backend is parked
// before phase 1.
func (app SwarmApp) Backend(cfg core.Config) (backend.Backend, error) {
	return backend.New(cfg, func(bk backend.Backend) ([]guest.TaskDesc, *guest.FnTable) {
		b := &guest.AppBuild{Alloc: bk.SetupAlloc, Store: bk.Mem().Store}
		roots := app.Build(b)
		return roots, &b.FnTable
	})
}

// RunSwarm executes b's Swarm version on a machine config and returns its
// statistics after verifying the result. A Phased benchmark runs its
// whole session and reports the cumulative statistics.
func RunSwarm(b Benchmark, cfg core.Config) (core.Stats, error) {
	if p, ok := b.(Phased); ok {
		phases, err := p.RunSwarmPhases(cfg)
		if err != nil {
			return core.Stats{}, err
		}
		return phases[len(phases)-1].Cumulative, nil
	}
	app := b.SwarmApp()
	bk, err := app.Backend(cfg)
	if err != nil {
		return core.Stats{}, err
	}
	ph, err := bk.RunPhase()
	if err != nil {
		return core.Stats{}, err
	}
	if app.Verify != nil {
		if err := app.Verify(bk.Mem().Load); err != nil {
			return core.Stats{}, fmt.Errorf("swarm result verification failed: %w", err)
		}
	}
	return ph.Cumulative, nil
}

// RunSerial executes b's tuned serial version in direct mode on a machine
// sized for nCores (bigger machines have bigger caches, Fig 12) and
// returns elapsed cycles after verifying the result. A Phased benchmark
// runs every phase (SerialPhasesApp).
func RunSerial(b Benchmark, nCores int) (uint64, error) {
	app := b.SerialApp()
	if p, ok := b.(Phased); ok {
		app = p.SerialPhasesApp()
	}
	m := smp.NewSerialMachine(smp.DefaultConfig(nCores))
	body := app.Build(m.SetupAlloc, m.Mem().Store)
	cycles := m.Run(func(e guest.Env) { body(e, func() {}) })
	return cycles, app.Verify(m.Mem().Load)
}

// Phased is implemented by benchmarks that execute as multi-phase sessions:
// run to quiescence, mutate inputs, inject new roots, run again. RunSwarm
// and RunSerial on such a benchmark cover the whole session; SwarmApp and
// SerialApp cover phase 1 only (what the oracle analyzes).
type Phased interface {
	Benchmark
	// PhaseCount returns the number of quiescent phases a run executes.
	PhaseCount() int
	// RunSwarmPhases executes the session and returns one PhaseStats per
	// phase, each verified against the benchmark's per-phase reference.
	RunSwarmPhases(cfg core.Config) ([]core.PhaseStats, error)
	// SerialPhasesApp returns the serial baseline of the whole session:
	// every phase in one run, verified against the final phase's
	// reference.
	SerialPhasesApp() SerialApp
}

// Session is a live phased run: a warm simulated machine parked at a
// quiescent point between phases. Where RunSwarmPhases executes every
// phase in one call, a Session steps on demand — the resubmission pattern
// a simulation daemon serves, where a client advances an incremental
// workload one update batch at a time against state that stays resident.
//
// A Session is not safe for concurrent use; callers (e.g. swarmd's
// session pool) serialize Step per session. Stepping a session is
// deterministic: the k-th phase produces identical statistics no matter
// how the steps interleave with other sessions.
type Session struct {
	app    string
	total  int
	phases []core.PhaseStats
	step   func(phase int) (core.PhaseStats, error)
	snap   func() core.Stats
}

// NewSession assembles a live session for OpenSession implementations:
// total phases, a step hook executing 0-based phase k (inject the phase's
// inputs, run to quiescence, verify), and a cumulative-stats snapshot hook.
func NewSession(app string, total int, step func(phase int) (core.PhaseStats, error), snap func() core.Stats) *Session {
	return &Session{app: app, total: total, step: step, snap: snap}
}

// App returns the benchmark name the session runs.
func (s *Session) App() string { return s.app }

// PhaseCount returns the session's total phase count.
func (s *Session) PhaseCount() int { return s.total }

// Done returns how many phases have completed.
func (s *Session) Done() int { return len(s.phases) }

// Remaining returns how many phases are left to step.
func (s *Session) Remaining() int { return s.total - len(s.phases) }

// Phases returns the statistics of every completed phase, in order.
func (s *Session) Phases() []core.PhaseStats { return s.phases }

// Stats returns cumulative statistics at the session's current quiescent
// point.
func (s *Session) Stats() core.Stats { return s.snap() }

// Step executes the next phase — injecting that phase's inputs, running
// to quiescence and verifying against the per-phase reference — and
// returns its statistics. Stepping past the last phase is an error.
func (s *Session) Step() (core.PhaseStats, error) {
	if s.Remaining() == 0 {
		return core.PhaseStats{}, fmt.Errorf("%s session: all %d phases have run", s.app, s.total)
	}
	ph, err := s.step(len(s.phases))
	if err != nil {
		return core.PhaseStats{}, err
	}
	s.phases = append(s.phases, ph)
	return ph, nil
}

// Sessioned is implemented by phased benchmarks that can open a live
// session instead of running all phases at once. RunSwarmPhases on such a
// benchmark is equivalent to opening a session and stepping it to
// completion — bit-identical statistics either way.
type Sessioned interface {
	Phased
	// OpenSession builds the machine (laying out guest memory and
	// enqueueing the initial roots) and parks it before phase 1.
	OpenSession(cfg core.Config) (*Session, error)
}
