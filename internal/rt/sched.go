package rt

import (
	"slices"
	"sync"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/pq"
)

// task is one schedulable unit. vt is its unique virtual time: the guest
// timestamp ordered first, then the nested fork path (tsdom dag order,
// empty for flat tasks), broken by a global creation sequence number —
// exactly like the simulator's (timestamp, path, tiebreaker) virtual time
// (§4.2). Roots take sequence numbers in setup order; children take them
// at their parent's commit. Commits happen strictly in vt order and
// children inherit sequence numbers from a deterministic commit sequence,
// so the total order — and with it the final guest memory — is
// independent of worker interleaving. vt is fixed at creation and
// survives aborts; env holds the current attempt's read/write/child
// buffers from dispatch until the attempt commits or aborts, and at is
// the commit count when that attempt was dispatched (see validLocked).
type task struct {
	desc guest.TaskDesc
	vt   pq.Key
	env  *taskEnv
	at   uint64
}

// sched is the software task unit + commit queue: one timestamp-ordered
// ready heap feeding a worker per host CPU, a running set, and a bounded
// commit queue drained strictly in vt order — the runtime's software
// stand-in for the simulator's per-tile task units and GVT-gated commit
// queues.
//
// mu guards the scheduler's mutable state and serializes dispatch,
// commit and abort. Every commit writes the paged versioned store under
// it, so the versions validation reads under mu cannot move. Task bodies
// execute outside it and read the store lock-free (see the store doc
// comment).
type sched struct {
	r  *Runtime
	mu sync.Mutex
	// cond wakes workers when ready work appears, a commit frees the
	// commit queue head, or the phase drains.
	cond *sync.Cond

	// ready holds runnable tasks by vt.
	ready pq.Heap[*task]
	// running holds the dispatched, not-yet-finished attempts: at most
	// one per worker, so a scan is cheaper than any ordered structure.
	running []*task
	// commitQ holds executed tasks awaiting their turn to validate and
	// commit in vt order.
	commitQ pq.Heap[*task]
	// commitCap is the commit queue's capacity for dispatch (see
	// popEligibleLocked); 0 lifts the bound. RunPhase sets it.
	commitCap int
	// envs holds retired attempt buffers for reuse (see retireLocked).
	envs []*taskEnv

	// conservative restricts dispatch to tasks at the minimum uncommitted
	// timestamp (level-synchronous waves): no task runs ahead of virtual
	// time, so aborts only come from same-timestamp conflicts.
	conservative bool

	seqCtr uint64
	done   bool
	err    error

	commits, aborts, retries uint64
	enqueues, dequeues       uint64
	// stalls counts dispatches refused because the commit queue was full;
	// peakCommitQ is the deepest the commit queue has been.
	stalls, peakCommitQ uint64
}

// recycleMax bounds the buffers a retired attempt hands on: one attempt
// that read thousands of words would otherwise pin that much storage on
// the free list for good. The suite's tasks touch tens of words: on
// perfbench's rt workload ~0.09% of attempts exceed the bound.
const recycleMax = 64

func newSched(r *Runtime, conservative bool) *sched {
	s := &sched{r: r, conservative: conservative}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// retireLocked takes a finished attempt's buffers off t and keeps them
// for the next dispatch unless they outgrew recycleMax. The buffers are
// cleared by the worker that reuses them, outside the lock.
func (s *sched) retireLocked(t *task) {
	e := t.env
	t.env = nil
	if cap(e.reads) <= recycleMax && cap(e.writes) <= recycleMax &&
		cap(e.children) <= recycleMax && cap(e.frees) <= recycleMax {
		s.envs = append(s.envs, e)
	}
}

// abortLocked retires a failed attempt and requeues its task.
func (s *sched) abortLocked(t *task) {
	s.aborts++
	s.retries++
	s.retireLocked(t)
	s.ready.Push(t.vt, t, nil)
	s.cond.Broadcast()
}

// enqueueLocked admits a new descriptor, assigning the next sequence
// number. Callers are single-threaded (setup) or hold the commit path's
// serialization (child enqueue at parent commit), so sequence assignment
// is deterministic.
func (s *sched) enqueueLocked(d guest.TaskDesc) {
	s.seqCtr++
	s.enqueues++
	t := &task{desc: d, vt: pq.Key{TS: d.TS, Path: d.Path, Seq: s.seqCtr}}
	s.ready.Push(t.vt, t, nil)
}

// minActiveLocked returns the minimum vt over ready and running tasks
// — the bound a commit queue head must beat to be certain no earlier
// task can still appear before it.
func (s *sched) minActiveLocked() (pq.Key, bool) {
	var best pq.Key
	ok := s.ready.Len() > 0
	if ok {
		best = s.ready.Min().vt
	}
	for _, t := range s.running {
		if !ok || t.vt.Less(&best) {
			best, ok = t.vt, true
		}
	}
	return best, ok
}

// minUncommittedTSLocked returns the smallest guest timestamp among all
// uncommitted tasks: the conservative mode's dispatch frontier. The
// frontier is deliberately timestamp-only — a conservative wave spans a
// whole timestamp slot including its nested fork subtasks, which may run
// concurrently within the wave; the commit queue still retires them in
// full (ts, path, seq) order.
func (s *sched) minUncommittedTSLocked() (uint64, bool) {
	min, ok := s.minActiveLocked()
	ts, any := min.TS, ok
	if s.commitQ.Len() > 0 {
		if h := s.commitQ.Min().vt.TS; !any || h < ts {
			ts, any = h, true
		}
	}
	return ts, any
}

// popEligibleLocked dispatches the minimum-vt ready task, or nil if
// none is runnable. Speculative mode dispatches the global ready minimum
// regardless of what is still uncommitted; conservative mode holds tasks
// back until their timestamp is the minimum uncommitted timestamp.
//
// Both modes bound run-ahead like the paper's per-core commit queues: a
// worker stalls while the commit queue holds commitCap entries. The
// exception is a ready head that precedes the commit queue head (the
// §4.7 progress rule: the earliest task may always run). Without it the
// phase could deadlock, with the queue full of tasks waiting on a ready
// task that nothing may dispatch.
func (s *sched) popEligibleLocked() *task {
	head := s.ready.Min()
	if head == nil {
		return nil
	}
	if s.conservative {
		if frontier, ok := s.minUncommittedTSLocked(); ok && head.vt.TS > frontier {
			return nil
		}
	}
	if s.commitCap > 0 && s.commitQ.Len() >= s.commitCap && !head.vt.Less(&s.commitQ.Min().vt) {
		s.stalls++
		return nil
	}
	return s.ready.Pop()
}

// next blocks until it can hand the calling worker a task, with a
// (possibly recycled) attempt buffer in t.env, or returns nil when the
// phase is drained (or poisoned by err). It takes s.mu for the whole
// decision and also drives the commit queue: every wakeup drains
// whatever has become committable.
func (s *sched) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil || s.done {
			return nil
		}
		s.tryCommitsLocked()
		if s.err != nil {
			return nil
		}
		if t := s.popEligibleLocked(); t != nil {
			s.running = append(s.running, t)
			s.dequeues++
			t.at = s.commits
			if n := len(s.envs); n > 0 {
				t.env = s.envs[n-1]
				s.envs[n-1] = nil
				s.envs = s.envs[:n-1]
			} else {
				t.env = &taskEnv{r: s.r}
			}
			return t
		}
		if s.ready.Len() == 0 && len(s.running) == 0 && s.commitQ.Len() == 0 {
			s.done = true
			s.cond.Broadcast()
			return nil
		}
		s.cond.Wait()
	}
}

// stopLocked removes t from the running set.
func (s *sched) stopLocked(t *task) {
	i := slices.Index(s.running, t)
	s.running = slices.Delete(s.running, i, i+1)
}

// finish moves an executed attempt to the commit queue and drains any
// newly committable prefix.
func (s *sched) finish(t *task) {
	s.mu.Lock()
	s.stopLocked(t)
	s.commitQ.Push(t.vt, t, nil)
	s.peakCommitQ = max(s.peakCommitQ, uint64(s.commitQ.Len()))
	s.tryCommitsLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// handlePanic resolves a panic thrown during speculative execution. A
// task that read an inconsistent snapshot can do anything a wrong branch
// allows — index out of range, misaligned address, runaway loop — so a
// panic is first treated as suspected misspeculation: if the read set no
// longer validates, the attempt aborts and retries like any conflict.
// If the reads were consistent the panic is real: an op-cap overrun
// becomes a runtime error (infinite loop in guest code), anything else
// re-panics exactly as it would under the simulator.
func (s *sched) handlePanic(t *task, pval any) {
	s.mu.Lock()
	s.stopLocked(t)
	if !s.validLocked(t) {
		s.abortLocked(t)
		s.mu.Unlock()
		return
	}
	if _, capped := pval.(opCapPanic); capped {
		s.failLocked(s.r.taskErr(t, "exceeded %d operations in one attempt — likely an infinite loop", uint64(opCap)))
		s.mu.Unlock()
		return
	}
	s.failLocked(nil) // poison the phase so peers stop before the repanic
	s.mu.Unlock()
	panic(pval)
}

// failLocked poisons the phase with its first error and wakes everyone.
func (s *sched) failLocked(err error) {
	if s.err == nil {
		if err == nil {
			err = errGuestPanic
		}
		s.err = err
	}
	s.cond.Broadcast()
}

// validLocked checks an attempt's read set against current committed
// versions. Commits only happen under s.mu, which the caller holds, so
// the check is stable. If nothing has committed since the attempt was
// dispatched, no version can have moved since it read them, so the walk
// is skipped: an exact answer, not a weaker check.
func (s *sched) validLocked(t *task) bool {
	if s.commits == t.at {
		return true
	}
	for _, rd := range t.env.reads {
		if s.r.store.version(rd.addr) != rd.ver {
			return false
		}
	}
	return true
}

// tryCommitsLocked drains the committable prefix of the commit queue: a
// task commits only once no ready or running task precedes it in vt,
// which makes the commit sequence strictly vt-ordered — the software
// equivalent of GVT-gated commit (§4.2). Validation failures abort and
// requeue the task; since the requeued task now precedes the rest of the
// commit queue, the drain stops and the retry runs first. The minimum-
// vt uncommitted task can never be invalidated while running (nothing
// may commit under it), so every task eventually commits.
func (s *sched) tryCommitsLocked() {
	for s.commitQ.Len() > 0 && s.err == nil {
		head := s.commitQ.Min()
		if min, ok := s.minActiveLocked(); ok && min.Less(&head.vt) {
			return
		}
		s.commitQ.Pop()
		if !s.validLocked(head) {
			s.abortLocked(head)
			continue
		}
		if s.r.cfg.DebugChecks {
			if err := s.r.recheckLocked(head); err != nil {
				s.failLocked(err)
				return
			}
		}
		env := head.env
		for _, w := range env.writes {
			s.r.store.commitWrite(w.addr, w.val)
		}
		for _, d := range env.children {
			s.enqueueLocked(d)
		}
		if len(env.frees) > 0 {
			s.r.heapMu.Lock()
			for _, f := range env.frees {
				s.r.heap.Free(0, f.addr, f.n)
			}
			s.r.heap.ReleaseQuarantine(0)
			s.r.heapMu.Unlock()
		}
		s.retireLocked(head)
		s.commits++
		s.cond.Broadcast()
	}
}
