package rt

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/pq"
)

func testConfig(t *testing.T, cores int, backend string) core.Config {
	t.Helper()
	cfg := core.DefaultConfig(cores)
	cfg.Backend = backend
	return cfg
}

// runProgram builds a runtime for one function table, enqueues roots,
// and drains a single phase.
func runProgram(t *testing.T, cfg core.Config, fns []guest.TaskFn, names []string, roots []guest.TaskDesc) (*Runtime, core.PhaseStats, error) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(fns, names)
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for _, d := range roots {
		r.EnqueueRootDesc(d)
	}
	ps, err := r.RunPhase()
	return r, ps, err
}

// TestSequentialSemantics runs a program whose result depends on task
// order — each task multiplies an accumulator by a constant and adds its
// timestamp — so any out-of-order commit produces a different value.
func TestSequentialSemantics(t *testing.T) {
	const acc = uint64(1 << 12)
	const n = 200
	body := func(e guest.TaskEnv) {
		e.Store(acc, e.Load(acc)*3+e.Timestamp())
	}
	want := uint64(0)
	for ts := uint64(1); ts <= n; ts++ {
		want = want*3 + ts
	}
	for _, backend := range []string{"rt", "rt-conservative"} {
		for _, cores := range []int{1, 4, 16} {
			cfg := testConfig(t, cores, backend)
			var roots []guest.TaskDesc
			// Enqueue in a scrambled order; virtual time must still
			// serialize by timestamp.
			for i := 0; i < n; i++ {
				ts := uint64((i*7)%n + 1)
				roots = append(roots, guest.TaskDesc{Fn: 0, TS: ts})
			}
			r, ps, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"mul"}, roots)
			if err != nil {
				t.Fatalf("%s/%d: RunPhase: %v", backend, cores, err)
			}
			if got := r.Mem().Load(acc); got != want {
				t.Errorf("%s/%d: acc = %d, want %d", backend, cores, got, want)
			}
			if ps.Commits < n {
				t.Errorf("%s/%d: commits = %d, want >= %d", backend, cores, ps.Commits, n)
			}
			st := r.Snapshot()
			if st.Backend != backend {
				t.Errorf("Stats.Backend = %q, want %q", st.Backend, backend)
			}
			if st.Cycles != 0 {
				t.Errorf("%s: native Stats.Cycles = %d, want 0", backend, st.Cycles)
			}
			if st.WallNS == 0 {
				t.Errorf("%s: native Stats.WallNS = 0, want measured time", backend)
			}
		}
	}
}

// TestChildTasks checks commit-time child enqueue across generations: a
// chain of tasks each spawning its successor, walking a counter.
func TestChildTasks(t *testing.T) {
	const cell = uint64(1 << 12)
	const depth = 500
	body := func(e guest.TaskEnv) {
		v := e.Load(cell)
		e.Store(cell, v+1)
		if v+1 < depth {
			e.Enqueue(0, e.Timestamp()+1)
		}
	}
	for _, backend := range []string{"rt", "rt-conservative"} {
		cfg := testConfig(t, 8, backend)
		r, ps, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"chain"},
			[]guest.TaskDesc{{Fn: 0, TS: 0}})
		if err != nil {
			t.Fatalf("%s: RunPhase: %v", backend, err)
		}
		if got := r.Mem().Load(cell); got != depth {
			t.Errorf("%s: cell = %d, want %d", backend, got, depth)
		}
		// The root was enqueued before the phase began; the phase's own
		// enqueues are the depth-1 commit-time children.
		if ps.Enqueues != depth-1 {
			t.Errorf("%s: enqueues = %d, want %d", backend, ps.Enqueues, depth-1)
		}
	}
}

// TestDeterministicFinalMemory requires bit-identical final memory
// across core counts, worker counts (GOMAXPROCS caps them), commit
// queue bounds and repeated runs: the commit order is a pure function of
// the program, never of worker interleaving or of how far workers may
// run ahead of the commit queue head.
func TestDeterministicFinalMemory(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func() ([]guest.TaskFn, []guest.TaskDesc) {
		const base = uint64(1 << 12)
		body := func(e guest.TaskEnv) {
			slot := base + (e.Arg(0)%64)*8
			e.Store(slot, e.Load(slot)*7+e.Timestamp()+e.Arg(0))
			if e.Arg(0) < 3 {
				e.Enqueue(0, e.Timestamp()+e.Arg(0)+1, e.Arg(0)+100)
			}
		}
		var roots []guest.TaskDesc
		for i := uint64(0); i < 300; i++ {
			roots = append(roots, guest.TaskDesc{Fn: 0, TS: i % 17, Args: [3]uint64{i}})
		}
		return []guest.TaskFn{body}, roots
	}
	queues := []struct {
		name string
		set  func(*core.Config)
	}{
		{"commitq=1", func(c *core.Config) { c.CommitQPerCore = 1 }},
		{"commitq=default", func(*core.Config) {}},
		{"unbounded", func(c *core.Config) { c.UnboundedQueues = true }},
	}
	var want map[uint64]uint64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, q := range queues {
			for _, cores := range []int{1, 4, 16, 16} {
				fns, roots := build()
				cfg := testConfig(t, cores, "rt")
				q.set(&cfg)
				r, _, err := runProgram(t, cfg, fns, []string{"mix"}, roots)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d %s cores=%d: %v", procs, q.name, cores, err)
				}
				snap := r.Mem().Snapshot()
				if want == nil {
					want = snap
					continue
				}
				if !reflect.DeepEqual(snap, want) {
					t.Fatalf("GOMAXPROCS=%d %s cores=%d: final memory differs from the 1-worker run", procs, q.name, cores)
				}
			}
		}
	}
}

// TestCommitQueueDispatchRule pins the bounded commit queue's dispatch
// rule on hand-built tasks: with the queue at capacity a ready task that
// follows the queue head stalls (and is counted), one that precedes the
// head is dispatched (§4.7: the earliest task may always run), and a
// phase whose full queue waits on the ready minimum still completes.
func TestCommitQueueDispatchRule(t *testing.T) {
	mk := func(ts, seq uint64) *task {
		return &task{desc: guest.TaskDesc{TS: ts}, vt: pq.Key{TS: ts, Seq: seq}}
	}
	r, err := New(testConfig(t, 4, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := r.sched
	s.mu.Lock()
	s.commitCap = 2
	for _, c := range []*task{mk(5, 1), mk(6, 2)} {
		s.commitQ.Push(c.vt, c, nil)
	}
	late := mk(5, 3) // same timestamp as the head, later sequence number
	s.ready.Push(late.vt, late, nil)
	if got := s.popEligibleLocked(); got != nil {
		t.Errorf("full queue: dispatched ts=%d seq=%d, which follows the queue head", got.vt.TS, got.vt.Seq)
	}
	if s.stalls != 1 {
		t.Errorf("stalls = %d after one refused dispatch, want 1", s.stalls)
	}
	early := mk(4, 4)
	s.ready.Push(early.vt, early, nil)
	if got := s.popEligibleLocked(); got != early {
		t.Errorf("full queue: dispatched %v, want the ready task that precedes the queue head", got)
	}
	if s.stalls != 1 {
		t.Errorf("stalls = %d after an exempt dispatch, want 1", s.stalls)
	}
	s.commitCap = 3
	if got := s.popEligibleLocked(); got != late {
		t.Errorf("queue below capacity: dispatched %v, want the ready minimum", got)
	}
	s.mu.Unlock()
	if st := r.Snapshot(); st.CommitQStalls != 1 || st.PeakCommitQ != 0 {
		t.Errorf("Snapshot: CommitQStalls = %d, PeakCommitQ = %d; want 1, 0", st.CommitQStalls, st.PeakCommitQ)
	}

	// A whole phase on one worker with a one-entry queue. B (ts 2) has
	// already run against the initial memory and fills the queue; A
	// (ts 1) is ready and precedes it. Only the exemption lets A run, and
	// B's stale read must then abort and retry.
	const acc = uint64(1 << 12)
	body := func(e guest.TaskEnv) { e.Store(acc, e.Load(acc)*3+e.Timestamp()) }
	for _, backend := range []string{"rt", "rt-conservative"} {
		cfg := testConfig(t, 1, backend)
		cfg.CommitQPerCore = 1
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r.SetProgram([]guest.TaskFn{body}, []string{"acc"})
		if err := r.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		s := r.sched
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 2})
		b := s.ready.Pop()
		b.env = &taskEnv{r: r, desc: b.desc}
		if panicked, v := r.runBody(b, b.env); panicked {
			t.Fatalf("%s: B panicked: %v", backend, v)
		}
		s.commitQ.Push(b.vt, b, nil)
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 1})

		done := make(chan error, 1)
		go func() {
			_, err := r.RunPhase()
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: RunPhase: %v", backend, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: phase deadlocked: a full commit queue waits on a ready minimum nothing dispatches", backend)
		}
		if got, want := r.Mem().Load(acc), uint64((0*3+1)*3+2); got != want {
			t.Errorf("%s: acc = %d, want %d", backend, got, want)
		}
		if st := r.Snapshot(); st.Commits != 2 || st.Aborts != 1 {
			t.Errorf("%s: commits = %d, aborts = %d; want 2 and 1 (B's stale read retried)", backend, st.Commits, st.Aborts)
		}
	}
}

// TestRecycledAttemptBuffersStartClean drives contended same-timestamp
// tasks that buffer writes, children and frees through aborts and
// retries on reused attempt buffers, and checks that every attempt —
// including the DebugChecks re-execution — starts with empty buffers and
// no index maps, that no child or free is committed twice or lost, that
// an attempt whose sets outgrow the linear-scan threshold (but not the
// recycle bound) still reads its own writes and is recycled clean, and
// that a task whose read set outgrows the recycle bound does not hand
// its buffers on.
func TestRecycledAttemptBuffersStartClean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several workers even on one CPU
	const (
		counter   = uint64(1 << 12)
		childMark = uint64(1 << 14)
		wideBase  = uint64(1 << 16)
		midBase   = uint64(1 << 18)
		n         = 200
		nMid      = 8
		midWords  = linearMax + 4 // past the threshold, within recycleMax
	)
	var dirty, indexed atomic.Int64
	clean := func(e guest.TaskEnv) {
		env := e.(*taskEnv)
		if len(env.reads)+len(env.writes)+len(env.children)+len(env.frees) != 0 ||
			env.readIdx != nil || env.writeIdx != nil ||
			env.ops != 0 || env.forks != 0 || env.allocd {
			dirty.Add(1)
		}
	}
	inc := func(e guest.TaskEnv) {
		clean(e)
		v := e.Load(counter)
		runtime.Gosched() // let peers read the same counter value
		e.Store(counter, v+1)
		if e.Arg(0)%2 == 0 {
			e.Fork(1, e.Arg(0))
		} else {
			e.Enqueue(1, e.Timestamp()+1, e.Arg(0))
		}
		e.Free(e.Arg(1), 64)
	}
	child := func(e guest.TaskEnv) {
		clean(e)
		slot := childMark + 8*e.Arg(0)
		e.Store(slot, e.Load(slot)+1)
	}
	wide := func(e guest.TaskEnv) {
		clean(e)
		sum := uint64(0)
		for i := uint64(0); i < 2*recycleMax; i++ {
			sum += e.Load(wideBase + 8*i)
		}
		v := e.Load(counter)
		runtime.Gosched()
		e.Store(counter, v+1+sum)
	}
	// mid adds 1 to each of midWords words, reading back every write
	// through the write set's index, then bumps the counter.
	mid := func(e guest.TaskEnv) {
		clean(e)
		for i := uint64(0); i < midWords; i++ {
			a := midBase + 8*i
			e.Store(a, e.Load(a)+1)
		}
		for i := uint64(0); i < midWords; i++ {
			if a := midBase + 8*i; e.Load(a) == 0 {
				panic("read-own-write lost past the linear-scan threshold")
			}
		}
		if env := e.(*taskEnv); env.readIdx != nil && env.writeIdx != nil {
			indexed.Add(1)
		}
		v := e.Load(counter)
		runtime.Gosched()
		e.Store(counter, v+1)
	}

	cfg := testConfig(t, 16, "rt")
	cfg.DebugChecks = true
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram([]guest.TaskFn{inc, child, wide, mid}, []string{"inc", "child", "wide", "mid"})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	freed := map[uint64]bool{}
	var top uint64
	for i := uint64(0); i < n; i++ {
		region := r.SetupAlloc(64)
		freed[region], top = true, region
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 1, Args: [3]uint64{i, region}})
		if i == n/2 {
			r.EnqueueRootDesc(guest.TaskDesc{Fn: 2, TS: 1})
		}
		if i%(n/nMid) == 0 {
			r.EnqueueRootDesc(guest.TaskDesc{Fn: 3, TS: 1})
		}
	}
	if _, err := r.RunPhase(); err != nil {
		t.Fatalf("RunPhase: %v", err)
	}

	if d := dirty.Load(); d != 0 {
		t.Errorf("%d attempts started with buffers left over from an earlier attempt", d)
	}
	if got := r.Mem().Load(counter); got != n+1+nMid {
		t.Errorf("counter = %d, want %d", got, n+1+nMid)
	}
	if indexed.Load() == 0 {
		t.Errorf("no attempt of mid indexed its sets; want them past linearMax = %d", linearMax)
	}
	if !slices.ContainsFunc(r.sched.envs, func(env *taskEnv) bool { return cap(env.writes) > linearMax }) {
		t.Errorf("no recycled env held a write set past linearMax = %d; want mid's to be reused", linearMax)
	}
	for i := uint64(0); i < midWords; i++ {
		if got := r.Mem().Load(midBase + 8*i); got != nMid {
			t.Fatalf("mid word %d = %d, want %d", i, got, nMid)
		}
	}
	for i := uint64(0); i < n; i++ {
		if got := r.Mem().Load(childMark + 8*i); got != 1 {
			t.Fatalf("child %d committed %d times, want 1", i, got)
		}
	}
	st := r.Snapshot()
	if st.Aborts == 0 || st.Aborts != st.Retries {
		t.Errorf("aborts = %d, retries = %d: want contention to force retries", st.Aborts, st.Retries)
	}
	for _, env := range r.sched.envs {
		if cap(env.reads) > recycleMax || cap(env.writes) > recycleMax ||
			cap(env.children) > recycleMax || cap(env.frees) > recycleMax {
			t.Errorf("recycled env holds room for %d reads, %d writes, %d children, %d frees; bound is %d",
				cap(env.reads), cap(env.writes), cap(env.children), cap(env.frees), recycleMax)
		}
	}
	// Each committed free returns its region exactly once: n fresh
	// allocations reuse exactly the n freed regions, and the next one
	// comes from new memory.
	for i := 0; i < n; i++ {
		a := r.SetupAlloc(64)
		if !freed[a] {
			t.Fatalf("allocation %d got %#x, not a (remaining) freed region", i, a)
		}
		delete(freed, a)
	}
	if a := r.SetupAlloc(64); a <= top {
		t.Errorf("allocation after the freed regions got %#x, want fresh memory", a)
	}
}

// TestContendedCounter hammers one word from many same-timestamp tasks:
// conflicts must resolve by abort/retry with no lost updates.
func TestContendedCounter(t *testing.T) {
	const cell = uint64(1 << 12)
	const n = 400
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+1)
	}
	cfg := testConfig(t, 16, "rt")
	var roots []guest.TaskDesc
	for i := 0; i < n; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: 1})
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"inc"}, roots)
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(cell); got != n {
		t.Errorf("cell = %d, want %d (lost updates)", got, n)
	}
	st := r.Snapshot()
	if st.Aborts != st.Retries {
		t.Errorf("aborts (%d) != retries (%d): every abort must requeue", st.Aborts, st.Retries)
	}
}

// TestMultiPhase exercises the session surface: memory edits and fresh
// roots between phases, with per-phase counter deltas.
func TestMultiPhase(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+e.Arg(0))
	}
	r, err := New(testConfig(t, 4, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram([]guest.TaskFn{body}, []string{"add"})
	if _, err := r.RunPhase(); err == nil || !strings.Contains(err.Error(), "RunPhase before Start") {
		t.Fatalf("RunPhase before Start: err = %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.Start(); err == nil {
		t.Fatal("second Start succeeded, want error")
	}
	total := uint64(0)
	for phase := 1; phase <= 3; phase++ {
		add := uint64(phase * 10)
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 0, Args: [3]uint64{add}})
		if got := r.QueuedTasks(); got != 1 {
			t.Fatalf("phase %d: QueuedTasks = %d, want 1", phase, got)
		}
		ps, err := r.RunPhase()
		if err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		total += add
		if ps.Phase != phase || ps.Commits != 1 {
			t.Errorf("phase %d: got Phase=%d Commits=%d", phase, ps.Phase, ps.Commits)
		}
		if got := r.Mem().Load(cell); got != total {
			t.Errorf("phase %d: cell = %d, want %d", phase, got, total)
		}
		if !r.Quiesced() {
			t.Errorf("phase %d: not quiesced after RunPhase", phase)
		}
	}
	st := r.Snapshot()
	if st.Commits != 3 {
		t.Errorf("cumulative commits = %d, want 3", st.Commits)
	}
}

// TestAllocFree exercises in-task allocation and commit-time free.
func TestAllocFree(t *testing.T) {
	const out = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		a := e.Alloc(64)
		e.Store(a, 41)
		e.Store(out, e.Load(a)+1)
		e.Free(a, 64)
	}
	r, _, err := runProgram(t, testConfig(t, 4, "rt"),
		[]guest.TaskFn{body}, []string{"scratch"}, []guest.TaskDesc{{Fn: 0, TS: 0}})
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(out); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
}

// TestSetupAllocFree checks the setup-time allocator surface used by
// Build functions: line alignment and immediate reuse after free.
func TestSetupAllocFree(t *testing.T) {
	r, err := New(testConfig(t, 4, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a := r.SetupAlloc(100)
	if a%64 != 0 {
		t.Errorf("SetupAlloc not line aligned: %#x", a)
	}
	// Setup allocations round to whole lines; freeing the rounded span
	// makes it immediately reusable (no quarantine outside tasks).
	r.SetupFree(a, 128)
	b := r.SetupAlloc(100)
	if b != a {
		t.Errorf("freed setup region not reused: got %#x, want %#x", b, a)
	}
}

// TestImpureTaskDetected is the DebugChecks divergence check: a task
// whose writes depend on captured host state (not guest memory) commits
// differently on re-execution and must be reported, not silently
// committed.
func TestImpureTaskDetected(t *testing.T) {
	hostCounter := uint64(0)
	impure := func(e guest.TaskEnv) {
		hostCounter++ // host state: invisible to versioned memory
		e.Store(1<<12, hostCounter)
	}
	cfg := testConfig(t, 4, "rt")
	cfg.DebugChecks = true
	_, _, err := runProgram(t, cfg, []guest.TaskFn{impure}, []string{"impure"},
		[]guest.TaskDesc{{Fn: 0, TS: 0}})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("impure task: err = %v, want divergence error naming the task", err)
	}
	if err != nil && !strings.Contains(err.Error(), "impure") {
		t.Errorf("divergence error should name the task: %v", err)
	}
}

// TestPureTaskPassesDebugChecks: the divergence check must not flag a
// pure program, including one with real conflicts and retries.
func TestPureTaskPassesDebugChecks(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+1)
	}
	cfg := testConfig(t, 16, "rt")
	cfg.DebugChecks = true
	var roots []guest.TaskDesc
	for i := 0; i < 200; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: 1})
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"inc"}, roots)
	if err != nil {
		t.Fatalf("pure contended program flagged: %v", err)
	}
	if got := r.Mem().Load(cell); got != 200 {
		t.Errorf("cell = %d, want 200", got)
	}
}

// TestRunawayTaskReported: a task that loops forever on consistent reads
// trips the op cap and surfaces as an error instead of hanging the run.
func TestRunawayTaskReported(t *testing.T) {
	if testing.Short() {
		t.Skip("spins ~16M guest ops")
	}
	runaway := func(e guest.TaskEnv) {
		for {
			e.Work(1 << 16)
		}
	}
	_, _, err := runProgram(t, testConfig(t, 4, "rt"),
		[]guest.TaskFn{runaway}, []string{"spin"}, []guest.TaskDesc{{Fn: 0, TS: 0}})
	if err == nil || !strings.Contains(err.Error(), "infinite loop") {
		t.Fatalf("runaway task: err = %v, want op-cap error", err)
	}
}

// TestChildTimestampOrder: enqueuing a child before its parent's
// timestamp must panic with the guest package's message, matching the
// simulator's task-environment contract.
func TestChildTimestampOrder(t *testing.T) {
	bad := func(e guest.TaskEnv) {
		e.Enqueue(0, e.Timestamp()-1)
	}
	defer func() {
		v := recover()
		s, ok := v.(string)
		if !ok || !strings.Contains(s, "before parent") {
			t.Fatalf("recovered %v, want child-timestamp panic", v)
		}
	}()
	// Single worker so the panic propagates on this goroutine's stack is
	// not guaranteed; run the body directly against an env instead.
	r, err := New(testConfig(t, 1, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	env := &taskEnv{r: r, desc: guest.TaskDesc{Fn: 0, TS: 5}}
	bad(env)
}

// TestConservativeNoCrossTimestampSpeculation: under rt-conservative,
// tasks at distinct timestamps never conflict (each wave drains before
// the next starts), so a cross-timestamp-only contention pattern must
// finish with zero aborts.
func TestConservativeNoCrossTimestampSpeculation(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+1)
	}
	cfg := testConfig(t, 16, "rt-conservative")
	var roots []guest.TaskDesc
	for i := 0; i < 100; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: uint64(i)}) // distinct timestamps
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"inc"}, roots)
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(cell); got != 100 {
		t.Errorf("cell = %d, want 100", got)
	}
	if st := r.Snapshot(); st.Aborts != 0 {
		t.Errorf("conservative mode aborted %d times on cross-timestamp-only contention", st.Aborts)
	}
}

// TestInvalidBackendConfig: rt.New refuses non-native and malformed
// configurations with the shared config validation error.
func TestInvalidBackendConfig(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Backend = "sim"
	if _, err := New(cfg); err == nil {
		t.Error("New with sim backend succeeded, want error")
	}
	cfg.Backend = "turbo"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("New with bogus backend: err = %v, want unknown-backend", err)
	}
	bad := core.DefaultConfig(4)
	bad.Backend = "rt"
	bad.Tiles = 0
	if _, err := New(bad); err == nil {
		t.Error("New with zero tiles succeeded, want error")
	}
}

// TestRepeatableReads: a task that reads the same word twice must see
// one value even if a concurrent commit lands between the loads. The
// read cache makes this structural, so just pin the single-task view.
func TestRepeatableReads(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		a := e.Load(cell)
		b := e.Load(cell)
		if a != b {
			panic("non-repeatable read")
		}
		e.Store(cell, a+1)
	}
	cfg := testConfig(t, 16, "rt")
	var roots []guest.TaskDesc
	for i := 0; i < 200; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: 1})
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"rr"}, roots)
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(cell); got != 200 {
		t.Errorf("cell = %d, want 200", got)
	}
}

// TestHintedEnqueue runs a program whose children carry spatial hints.
// The native scheduler places work by virtual time only, so the hint
// must be carried without changing semantics: same final memory and
// counts as the unhinted twin, and Phase advances per completed phase.
func TestHintedEnqueue(t *testing.T) {
	const cell = uint64(1 << 12)
	const fanout = 50
	root := func(e guest.TaskEnv) {
		for i := uint64(0); i < fanout; i++ {
			e.EnqueueHinted(1, e.Timestamp()+1+i, i%4, [3]uint64{i, 0, 0})
		}
	}
	leaf := func(e guest.TaskEnv) {
		e.Store(cell+8*e.Arg(0), e.Arg(0)+1)
	}
	for _, backend := range []string{"rt", "rt-conservative"} {
		cfg := testConfig(t, 4, backend)
		r, ps, err := runProgram(t, cfg, []guest.TaskFn{root, leaf}, []string{"root", "leaf"},
			[]guest.TaskDesc{{Fn: 0, TS: 0}})
		if err != nil {
			t.Fatalf("%s: RunPhase: %v", backend, err)
		}
		if ps.Commits != fanout+1 {
			t.Errorf("%s: commits = %d, want %d", backend, ps.Commits, fanout+1)
		}
		for i := uint64(0); i < fanout; i++ {
			if got := r.Mem().Load(cell + 8*i); got != i+1 {
				t.Fatalf("%s: word %d = %d, want %d", backend, i, got, i+1)
			}
		}
		if got := r.Phase(); got != 1 {
			t.Errorf("%s: Phase() = %d after one phase, want 1", backend, got)
		}
	}
}
