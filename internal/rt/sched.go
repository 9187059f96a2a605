package rt

import (
	"container/heap"
	"slices"
	"sync"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/tsdom"
)

// vtime is a task's unique virtual time: the guest timestamp ordered
// first, then the nested fork path (tsdom dag order, empty for flat
// tasks), broken by a global creation sequence number — exactly like the
// simulator's (timestamp, path, tiebreaker) virtual time (§4.2). Roots
// take sequence numbers in setup order; children take them at their
// parent's commit. Commits happen strictly in vtime order and children
// inherit sequence numbers from a deterministic commit sequence, so the
// total order — and with it the final guest memory — is independent of
// worker interleaving.
type vtime struct {
	ts   uint64
	path tsdom.Path
	seq  uint64
}

func (a vtime) less(b vtime) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if c := tsdom.Compare(a.path, b.path); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// task is one schedulable unit. vt is fixed at creation and survives
// aborts; env holds the current attempt's read/write/child buffers from
// dispatch until the attempt commits or aborts.
type task struct {
	desc guest.TaskDesc
	vt   vtime
	env  *taskEnv
}

// taskHeap is a min-heap of tasks by vtime.
type taskHeap []*task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].vt.less(h[j].vt) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// sched is the software task unit + commit queue: one timestamp-ordered
// ready heap feeding a worker per host CPU, a running set, and a commit
// queue drained strictly in vtime order. One mutex guards it all; tasks
// execute outside the lock, so the lock only serializes dispatch and
// commit — the runtime's software stand-in for the simulator's per-tile
// task units and GVT-gated commit queues.
type sched struct {
	r  *Runtime
	mu sync.Mutex
	// cond wakes workers when ready work appears, a commit frees the
	// commit queue head, or the phase drains.
	cond *sync.Cond

	// ready holds runnable tasks; ready[0] is the minimum ready vtime.
	ready taskHeap
	// running holds the dispatched, not-yet-finished attempts: at most
	// one per worker, so a scan is cheaper than any ordered structure.
	running []*task
	// commitQ holds executed tasks awaiting their turn to validate and
	// commit in vtime order.
	commitQ taskHeap
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
}

// recycleMax bounds the buffers a retired attempt hands on. Reuse clears
// the maps, and clear() costs a map's capacity, not its length: one
// attempt that read thousands of words would otherwise tax every later
// attempt that inherits its read set. The suite's tasks touch tens of
// words: on perfbench's rt workload ~0.05% of attempts exceed the bound.
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
	if len(e.reads) <= recycleMax && len(e.writes) <= recycleMax &&
		cap(e.children) <= recycleMax && cap(e.frees) <= recycleMax {
		s.envs = append(s.envs, e)
	}
}

// abortLocked retires a failed attempt and requeues its task.
func (s *sched) abortLocked(t *task) {
	s.aborts++
	s.retries++
	s.retireLocked(t)
	heap.Push(&s.ready, t)
	s.cond.Broadcast()
}

// enqueueLocked admits a new descriptor, assigning the next sequence
// number. Callers are single-threaded (setup) or hold the commit path's
// serialization (child enqueue at parent commit), so sequence assignment
// is deterministic.
func (s *sched) enqueueLocked(d guest.TaskDesc) {
	s.seqCtr++
	s.enqueues++
	heap.Push(&s.ready, &task{desc: d, vt: vtime{ts: d.TS, path: d.Path, seq: s.seqCtr}})
}

// minActiveLocked returns the minimum vtime over ready and running tasks
// — the bound a commit queue head must beat to be certain no earlier
// task can still appear before it.
func (s *sched) minActiveLocked() (vtime, bool) {
	var best vtime
	ok := len(s.ready) > 0
	if ok {
		best = s.ready[0].vt
	}
	for _, t := range s.running {
		if !ok || t.vt.less(best) {
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
	ts, any := min.ts, ok
	if s.commitQ.Len() > 0 {
		if h := s.commitQ[0].vt.ts; !any || h < ts {
			ts, any = h, true
		}
	}
	return ts, any
}

// popEligibleLocked dispatches the minimum-vtime ready task, or nil if
// none is runnable. Speculative mode dispatches the global ready minimum
// regardless of what is still uncommitted; conservative mode holds tasks
// back until their timestamp is the minimum uncommitted timestamp.
func (s *sched) popEligibleLocked() *task {
	if len(s.ready) == 0 {
		return nil
	}
	if s.conservative {
		if frontier, ok := s.minUncommittedTSLocked(); ok && s.ready[0].vt.ts > frontier {
			return nil
		}
	}
	return heap.Pop(&s.ready).(*task)
}

// next blocks until it can hand the calling worker a task, with a
// (possibly recycled) attempt buffer in t.env, or returns nil when the
// phase is drained (or poisoned by err). It also drives the commit
// queue: every wakeup drains whatever has become committable.
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
			if n := len(s.envs); n > 0 {
				t.env = s.envs[n-1]
				s.envs[n-1] = nil
				s.envs = s.envs[:n-1]
			} else {
				t.env = newTaskEnv(s.r, t.desc)
			}
			return t
		}
		if len(s.ready) == 0 && len(s.running) == 0 && s.commitQ.Len() == 0 {
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
	heap.Push(&s.commitQ, t)
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
	if !s.validLocked(t.env) {
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
// versions. Commits only happen under s.mu, so the check is stable.
func (s *sched) validLocked(env *taskEnv) bool {
	for addr, rec := range env.reads {
		if s.r.store.version(addr) != rec.ver {
			return false
		}
	}
	return true
}

// tryCommitsLocked drains the committable prefix of the commit queue: a
// task commits only once no ready or running task precedes it in vtime,
// which makes the commit sequence strictly vtime-ordered — the software
// equivalent of GVT-gated commit (§4.2). Validation failures abort and
// requeue the task; since the requeued task now precedes the rest of the
// commit queue, the drain stops and the retry runs first. The minimum-
// vtime uncommitted task can never be invalidated while running (nothing
// may commit under it), so every task eventually commits.
func (s *sched) tryCommitsLocked() {
	for s.commitQ.Len() > 0 && s.err == nil {
		head := s.commitQ[0]
		if min, ok := s.minActiveLocked(); ok && min.less(head.vt) {
			return
		}
		heap.Pop(&s.commitQ)
		if !s.validLocked(head.env) {
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
		for _, addr := range env.order {
			s.r.store.commitWrite(addr, env.writes[addr])
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
