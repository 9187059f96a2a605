package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/pq"
	"github.com/swarm-sim/swarm/internal/vt"
)

// Property tests for the commit protocol: randomized task DAGs executed on
// small, contended machines, asserting the three properties the protocol
// exists to provide —
//
//  1. no task commits before its parent (ordered commits, §4.6);
//  2. an abort squashes every speculative descendant and no discarded
//     incarnation ever commits (selective aborts, §4.5);
//  3. the final memory state equals a serial execution of the committed
//     tasks in virtual-time order: timestamp order, with same-timestamp
//     tasks in the order the machine chose for them (the correctness
//     contract of ordered speculation as a whole).
//
// Each generated program is a forest of tasks whose timestamps come from a
// small range, so many tasks share a timestamp, doing random conflicting
// reads/writes over a tiny shared array: runs abort constantly and
// exercise rollback, cascades, the full-queue policies and the order of
// same-timestamp tasks in the commit queues.

// propTask is one generated task: its timestamp, the shared-pool words it
// touches, and its children (indices into the program table).
type propTask struct {
	ts       uint64
	reads    []int
	writes   []int
	children []int
}

// propProgram is a generated forest over a shared word pool.
type propProgram struct {
	tasks []propTask
	roots []int
	words int
}

// genProgram builds a random forest of n tasks. A root's timestamp is
// drawn from 1..4 and a child's is its parent's plus 0..2, so timestamps
// collide often while no child precedes its parent; fan-out respects the
// 8-child hardware limit.
func genProgram(rng *rand.Rand, n, words int) propProgram {
	p := propProgram{tasks: make([]propTask, n), words: words}
	for i := range p.tasks {
		t := &p.tasks[i]
		for r := rng.Intn(4); r > 0; r-- {
			t.reads = append(t.reads, rng.Intn(words))
		}
		for w := 1 + rng.Intn(2); w > 0; w-- {
			t.writes = append(t.writes, rng.Intn(words))
		}
	}
	// Parent links: task i attaches to a random earlier task with spare
	// child slots, or becomes a root (always a root for i == 0).
	p.tasks[0].ts = 1 + uint64(rng.Intn(4))
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		if rng.Intn(4) == 0 || len(p.tasks[parent].children) >= 7 {
			p.tasks[i].ts = 1 + uint64(rng.Intn(4))
			p.roots = append(p.roots, i)
			continue
		}
		p.tasks[i].ts = p.tasks[parent].ts + uint64(rng.Intn(3))
		p.tasks[parent].children = append(p.tasks[parent].children, i)
	}
	p.roots = append(p.roots, 0)
	return p
}

// mix is the deterministic value a task writes: a function of the task id
// and everything it read, so any ordering violation corrupts memory in a
// way the serial oracle comparison catches.
func mix(id uint64, acc uint64) uint64 {
	x := id*0x9e3779b97f4a7c15 + acc
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x
}

// run executes one task body against any Env-like pair of load/store plus
// child-enqueue callbacks — shared by the guest body and the serial oracle
// so both execute identical work by construction.
func (p propProgram) run(id uint64, load func(uint64) uint64, store func(uint64, uint64), enq func(child int)) {
	t := p.tasks[id]
	acc := uint64(0)
	for _, r := range t.reads {
		acc += load(uint64(r) * 8)
	}
	for _, w := range t.writes {
		store(uint64(w)*8, mix(id, acc))
	}
	for _, c := range t.children {
		enq(c)
	}
}

// commitRecord is one commit as debugCommitHook sees it: the task's
// virtual time and its program-table id (argument 0).
type commitRecord struct {
	vt vt.Time
	id uint64
}

// record appends tk's commit to log.
func record(log *[]commitRecord, tk *task) {
	*log = append(*log, commitRecord{tk.vt, tk.desc.Args[0]})
}

// serialReplay executes p serially over mem, one task per committed
// record, in virtual-time order: the specification Swarm's parallel
// execution must match. It fails unless every task committed exactly once
// and after its parent.
func (p propProgram) serialReplay(mem map[uint64]uint64, log []commitRecord) error {
	if len(log) != len(p.tasks) {
		return fmt.Errorf("%d commits for %d tasks", len(log), len(p.tasks))
	}
	parent := make([]int, len(p.tasks))
	for i := range parent {
		parent[i] = -1
	}
	for i, t := range p.tasks {
		for _, c := range t.children {
			parent[c] = i
		}
	}
	sorted := slices.Clone(log)
	slices.SortFunc(sorted, func(a, b commitRecord) int { return vt.Compare(a.vt, b.vt) })
	done := make([]bool, len(p.tasks))
	for _, c := range sorted {
		if done[c.id] {
			return fmt.Errorf("task %d committed twice", c.id)
		}
		if par := parent[c.id]; par >= 0 && !done[par] {
			return fmt.Errorf("task %d orders before its parent %d in virtual time", c.id, par)
		}
		done[c.id] = true
		p.run(c.id,
			func(a uint64) uint64 { return mem[a] },
			func(a, v uint64) { mem[a] = v },
			func(int) {})
	}
	return nil
}

// sameSlotTies counts the other members of tk's commit queue that share
// its timestamp and path: commits whose order only the tiebreak decides.
func sameSlotTies(m *Machine, tk *task) int {
	q := &m.tiles[tk.tile].commitQ
	n := 0
	for i := 0; i < q.Len(); i++ {
		if o := q.At(i); o != tk && o.vt.TS == tk.vt.TS && o.vt.Path == tk.vt.Path {
			n++
		}
	}
	return n
}

func (p propProgram) program(base *uint64) *Program {
	prog := &Program{}
	prog.Setup = func(m *Machine) {
		*base = m.SetupAlloc(uint64(p.words) * 8)
		body := func(e guest.TaskEnv) {
			id := e.Arg(0)
			e.Work(2)
			p.run(id,
				func(a uint64) uint64 { return e.Load(*base + a) },
				func(a, v uint64) { e.Store(*base+a, v) },
				func(c int) { e.EnqueueArgs(0, p.tasks[c].ts, [3]uint64{uint64(c)}) })
		}
		prog.Fns = []guest.TaskFn{body}
		for _, r := range p.roots {
			m.EnqueueRoot(0, p.tasks[r].ts, uint64(r))
		}
	}
	return prog
}

// TestCommitQueueKeyMatchesVT checks that cqKey, which drops vt.Tile,
// orders every tile's commit queue and finish-wait set exactly as
// vt.Compare does, because each member carries its own tile's id. The
// tasks share one timestamp and the flat path, so member pairs tie on
// (TS, Path) and the order rests on the dispatch cycle.
func TestCommitQueueKeyMatchesVT(t *testing.T) {
	const n, words = 96, 8
	var base uint64
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				a := base + e.Arg(0)%words*8
				e.Work(20 + e.Arg(0)%7*10)
				e.Store(a, e.Load(a)+1)
			},
		},
		Setup: func(m *Machine) {
			base = m.SetupAlloc(words * 8)
			for i := uint64(0); i < n; i++ {
				m.EnqueueRoot(0, 1, i)
			}
		},
	}
	var err error
	ties := 0
	debugCommitHook = func(m *Machine, _ *task) {
		for _, tt := range m.tiles {
			var members []*task
			for _, h := range []*pq.Heap[*task]{&tt.commitQ, &tt.finishWait} {
				for i := 0; i < h.Len(); i++ {
					members = append(members, h.At(i))
				}
			}
			for _, a := range members {
				if int(a.vt.Tile) != tt.id && err == nil {
					err = fmt.Errorf("tile %d queues task %v dispatched by tile %d", tt.id, a.vt, a.vt.Tile)
				}
				for _, b := range members {
					ka, kb := a.cqKey(), b.cqKey()
					if ka.Less(&kb) != (vt.Compare(a.vt, b.vt) < 0) && err == nil {
						err = fmt.Errorf("tile %d: cqKey orders %v and %v unlike vt.Compare", tt.id, a.vt, b.vt)
					}
					if a != b && ka.TS == kb.TS && ka.Path == kb.Path {
						ties++
					}
				}
			}
		}
	}
	defer func() { debugCommitHook = nil }()
	m, merr := NewMachine(propConfig(1), prog)
	if merr != nil {
		t.Fatal(merr)
	}
	if _, merr := m.Run(); merr != nil {
		t.Fatal(merr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ties == 0 {
		t.Fatal("no two queued tasks tied on (TS, Path): the test does not exercise the cycle order")
	}
	for w := uint64(0); w < words; w++ {
		if got := m.Mem().Load(base + w*8); got != n/words {
			t.Fatalf("word %d = %d, want %d", w, got, n/words)
		}
	}
}

// propConfig is a deliberately tiny, contended machine: 2 tiles x 2 cores
// with small queues, so spills, NACKs and the §4.7 policies all fire.
func propConfig(seed int64) Config {
	cfg := DefaultConfig(4)
	cfg.Tiles, cfg.CoresPerTile = 2, 2
	cfg.TaskQPerCore = 8
	cfg.CommitQPerCore = 2
	cfg.SpillBatch = 4
	cfg.Seed = seed
	cfg.DebugChecks = true // commit-order assertions on every commit
	cfg.MaxCycles = 50_000_000
	return cfg
}

func TestCommitProtocolProperties(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// 8 shared words across ~70 tasks: heavy conflict traffic.
			p := genProgram(rng, 50+rng.Intn(40), 8)

			// Tracking state, all keyed by task seq (unique per task
			// incarnation: re-enqueued conflict victims get a fresh seq, so
			// a discarded incarnation's seq can never be recycled into a
			// commit).
			committed := map[uint64]bool{}
			discarded := map[uint64]bool{}
			var cascadeErr, commitErr error
			var log []commitRecord

			debugCommitHook = func(m *Machine, tk *task) {
				// Property 1: a committing task's parent has already
				// committed (commitTask clears children's parent pointers,
				// so a live pointer means an uncommitted parent).
				if tk.parent != nil && commitErr == nil {
					commitErr = fmt.Errorf("task ts=%d committed before its parent ts=%d",
						tk.desc.TS, tk.parent.desc.TS)
				}
				committed[tk.seq] = true
				record(&log, tk)
				ties += sameSlotTies(m, tk)
			}
			aborted := map[uint64]bool{}
			debugAbortHook = func(m *Machine, victim *task, discard bool) {
				aborted[victim.seq] = true
				// Property 2: the cascade must reach every child. Children
				// in speculative states get their own abort (checked at the
				// end via the abort log); idle children are discarded
				// silently — either way their current incarnation must
				// never commit.
				for _, ch := range victim.children {
					discarded[ch.seq] = true
					if ch.state == taskCommitted && cascadeErr == nil {
						cascadeErr = fmt.Errorf("aborting ts=%d but child ts=%d already committed",
							victim.desc.TS, ch.desc.TS)
					}
				}
			}
			defer func() { debugCommitHook, debugAbortHook = nil, nil }()

			var base uint64
			m, err := NewMachine(propConfig(seed), p.program(&base))
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if commitErr != nil {
				t.Fatal(commitErr)
			}
			if cascadeErr != nil {
				t.Fatal(cascadeErr)
			}
			if int(st.Commits) < len(p.tasks) {
				t.Fatalf("only %d commits for %d tasks", st.Commits, len(p.tasks))
			}
			// Property 2 (post-hoc): no incarnation marked for discard by a
			// parent abort ever committed.
			for seq := range discarded {
				if committed[seq] {
					t.Fatalf("discarded task incarnation (seq %d) committed", seq)
				}
			}
			// Property 3: final memory equals the serial replay.
			want := map[uint64]uint64{}
			if err := p.serialReplay(want, log); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < p.words; w++ {
				addr := base + uint64(w)*8
				if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
					t.Fatalf("word %d = %#x, want %#x (serial replay)", w, got, want[uint64(w)*8])
				}
			}
			if st.Aborts == 0 && seed <= 5 {
				t.Logf("seed %d: no aborts — program may be too conflict-free to be interesting", seed)
			}
		})
	}
	if ties == 0 {
		t.Fatal("no commit found a same-timestamp, same-path task in its commit queue: the programs do not exercise the tiebreak")
	}
	t.Logf("%d same-slot commit-queue ties across all seeds", ties)
}

// TestCommitProtocolPhasedInjection extends the commit-protocol properties
// across quiescence: a first random forest runs to quiescence, a second
// batch of roots is injected into the same (warm) machine, and the second
// phase runs over memory the first one produced. The protocol properties
// must hold in every phase, and the final memory must equal the serial
// oracle of phase 1 followed by phase 2 — even though phase 2's
// timestamps restart below already-committed history.
func TestCommitProtocolPhasedInjection(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 1001))
			p1 := genProgram(rng, 40+rng.Intn(30), 8)
			p2 := genProgram(rng, 30+rng.Intn(30), 8)

			committed := map[uint64]bool{}
			discarded := map[uint64]bool{}
			var cascadeErr, commitErr error
			var logs [2][]commitRecord // per phase: the task function is the phase
			debugCommitHook = func(m *Machine, tk *task) {
				if tk.parent != nil && commitErr == nil {
					commitErr = fmt.Errorf("task ts=%d committed before its parent ts=%d",
						tk.desc.TS, tk.parent.desc.TS)
				}
				committed[tk.seq] = true
				record(&logs[tk.desc.Fn], tk)
			}
			debugAbortHook = func(m *Machine, victim *task, discard bool) {
				for _, ch := range victim.children {
					discarded[ch.seq] = true
					if ch.state == taskCommitted && cascadeErr == nil {
						cascadeErr = fmt.Errorf("aborting ts=%d but child ts=%d already committed",
							victim.desc.TS, ch.desc.TS)
					}
				}
			}
			defer func() { debugCommitHook, debugAbortHook = nil, nil }()

			var base uint64
			prog := &Program{}
			prog.Setup = func(m *Machine) {
				base = m.SetupAlloc(8 * 8)
				body := func(p propProgram, self guest.FnID) guest.TaskFn {
					return func(e guest.TaskEnv) {
						id := e.Arg(0)
						e.Work(2)
						p.run(id,
							func(a uint64) uint64 { return e.Load(base + a) },
							func(a, v uint64) { e.Store(base+a, v) },
							func(c int) { e.EnqueueArgs(self, p.tasks[c].ts, [3]uint64{uint64(c)}) })
					}
				}
				prog.Fns = []guest.TaskFn{body(p1, 0), body(p2, 1)}
				prog.FnNames = []string{"phase1", "phase2"}
				for _, r := range p1.roots {
					m.EnqueueRoot(0, p1.tasks[r].ts, uint64(r))
				}
			}
			m, err := NewMachine(propConfig(seed), prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			ph1, err := m.RunPhase()
			if err != nil {
				t.Fatalf("phase 1: %v", err)
			}
			if int(ph1.Commits) < len(p1.tasks) {
				t.Fatalf("phase 1: only %d commits for %d tasks", ph1.Commits, len(p1.tasks))
			}
			// Mid-session check: phase 1's memory equals its serial replay
			// before any phase-2 work is injected.
			want := map[uint64]uint64{}
			if err := p1.serialReplay(want, logs[0]); err != nil {
				t.Fatalf("phase 1: %v", err)
			}
			for w := 0; w < p1.words; w++ {
				addr := base + uint64(w)*8
				if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
					t.Fatalf("phase 1 word %d = %#x, want %#x", w, got, want[uint64(w)*8])
				}
			}
			if m.QueuedTasks() != 0 {
				t.Fatalf("quiescent machine reports %d queued tasks", m.QueuedTasks())
			}

			// Inject the second forest: timestamps restart at 1, below the
			// committed history's virtual times.
			for _, r := range p2.roots {
				m.EnqueueRoot(1, p2.tasks[r].ts, uint64(r))
			}
			ph2, err := m.RunPhase()
			if err != nil {
				t.Fatalf("phase 2: %v", err)
			}
			if commitErr != nil {
				t.Fatal(commitErr)
			}
			if cascadeErr != nil {
				t.Fatal(cascadeErr)
			}
			if int(ph2.Commits) < len(p2.tasks) {
				t.Fatalf("phase 2: only %d commits for %d tasks", ph2.Commits, len(p2.tasks))
			}
			if ph2.StartCycle != ph1.EndCycle {
				t.Fatalf("phase 2 starts at %d, phase 1 ended at %d", ph2.StartCycle, ph1.EndCycle)
			}
			for seq := range discarded {
				if committed[seq] {
					t.Fatalf("discarded task incarnation (seq %d) committed", seq)
				}
			}
			// Final memory: phase 1 then phase 2, each replayed serially
			// in virtual-time order.
			if err := p2.serialReplay(want, logs[1]); err != nil {
				t.Fatalf("phase 2: %v", err)
			}
			for w := 0; w < p2.words; w++ {
				addr := base + uint64(w)*8
				if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
					t.Fatalf("final word %d = %#x, want %#x (two-phase serial replay)", w, got, want[uint64(w)*8])
				}
			}
		})
	}
}
