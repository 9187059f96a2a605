package core

import (
	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/pq"
	"github.com/swarm-sim/swarm/internal/sim"
	"github.com/swarm-sim/swarm/internal/vt"
)

// taskState tracks a task through its lifetime (Fig 4 plus two transients:
// FINISHING covers a finished task stalled waiting for a commit queue entry,
// KILLED marks a discarded child of an aborted parent).
type taskState uint8

const (
	taskIdle taskState = iota
	taskRunning
	taskFinishing // finished execution, waiting for a commit queue entry
	taskFinished  // holds a commit queue entry
	taskCommitted
	taskKilled
)

func (s taskState) String() string {
	return [...]string{"idle", "running", "finishing", "finished", "committed", "killed"}[s]
}

// kinds of pseudo-tasks used by the queue-virtualization mechanism (§4.7).
type taskKind uint8

const (
	kindWorker   taskKind = iota
	kindSplitter          // re-enqueues a batch of spilled task descriptors
)

type undoRec struct {
	addr uint64
	old  uint64
}

// pendKind tells the task's pre-bound event callback (taskEvent) what the
// scheduled event means. The machine schedules every per-task event through
// task.evFn instead of a fresh closure, so the hot path allocates nothing.
type pendKind uint8

const (
	pendStart    pendKind = iota // dequeue delay elapsed: start the body
	pendResume                   // resume the guest with Result{Val: pendVal}
	pendResumeOK                 // resume the guest with Result{OK: true}
	pendFinish                   // finish delay elapsed: move to commit queue
	pendEnqRetry                 // enqueue-NACK backoff expired: retry pendDesc
)

// vt0 is the zero virtual time (undispatched).
var vt0 vt.Time

// task is one task-queue entry plus all speculative state Swarm associates
// with the task (Fig 6): read/write signatures, undo log and children
// pointers. The entry keeps its identity from creation to commit.
type task struct {
	desc  guest.TaskDesc
	kind  taskKind
	state taskState
	tile  int // owning tile (task queue position)
	seq   uint64

	vt vt.Time // unique virtual time, assigned at dispatch

	parent   *task
	children []*task

	rs, ws *bloom.Filter
	undo   []undoRec

	co        *guest.Coroutine
	core      int // core running/holding the task, -1 otherwise
	lastCore  int // last core that executed the task (cycle attribution)
	cyc       uint64
	pendingEv *sim.Event
	inBackoff bool // parked in an enqueue-NACK retry loop

	// Pre-bound event callback plus the pending-event payload it decodes;
	// see pendKind. evFn is built once in newTask and reused for every
	// event the task schedules.
	evFn        func()
	pend        pendKind
	pendVal     uint64
	pendDesc    guest.TaskDesc
	pendAttempt int

	// splitter payload: id of the spilled batch in Machine.spillStore.
	batch uint64

	allocToken uint64

	heapIdx int32  // position in the tile's order queue, -1 when not idle
	cqIdx   int32  // position in the tile's commitQ or finishWait heap, -1 otherwise
	qSeq    uint64 // order of entry into that queue (conflict-probe order)

	// Way-0 index state: the tile slot id held while dispatched, and the
	// way-0 bit indexes this task's signature inserts set (so releaseSlot
	// can clear exactly those bitmap bits).
	slot    int32
	ws0Bits []uint32
	rs0Bits []uint32

	graveEv uint64 // engine event count when the task was freed (recycling age)
}

// spec reports whether the task runs speculatively. Splitters (and the
// coalescer pseudo-task) are non-speculative: they touch only runtime
// metadata, perform no conflict-checked accesses, and cannot abort.
func (t *task) spec() bool { return t.kind == kindWorker }

// boundVT returns the virtual time used for GVT purposes: dispatched tasks
// use their unique virtual time; idle tasks use (timestamp, path, now,
// tile) (§4.6).
func (t *task) boundVT(now uint64) vt.Time {
	if t.state != taskIdle {
		return t.vt
	}
	return descBoundVT(t.desc.TS, t.desc.Path, now, t.tile)
}

// idleKey orders a tile's order queue (§4.2): the hardware finds the
// highest-priority idle task with two small TCAMs; functionally it is a
// min-heap on (timestamp, nested path, arrival order). A task's
// descriptor and seq do not change while it is queued.
func (t *task) idleKey() pq.Key { return pq.Key{TS: t.desc.TS, Path: t.desc.Path, Seq: t.seq} }

// cqKey orders a tile's commit queue and finish-wait set (§4.2, §4.6) by
// unique virtual time. Every member was dispatched by this tile, so its
// vt.Tile is the tile's id and (TS, Path, Cycle) orders the members
// exactly as vt.Compare does.
func (t *task) cqKey() pq.Key { return pq.Key{TS: t.vt.TS, Path: t.vt.Path, Seq: t.vt.Cycle} }

// unqueue removes t from h, where i is t's recorded position.
func unqueue(h *pq.Heap[*task], t *task, i int32) {
	if i < 0 || int(i) >= h.Len() || h.At(int(i)) != t {
		panic("core: removing a task from a queue it is not in")
	}
	h.Remove(int(i))
}

// descKey orders the memory-resident overflow buffer by (timestamp,
// nested path). The path joins the key because the heap head feeds the
// tile's GVT bound (tileMinVT): with a TS-only key a deeply-pathed head
// could hide an earlier-pathed descriptor below it, raising the bound
// past work that must still run.
func descKey(d guest.TaskDesc) pq.Key { return pq.Key{TS: d.TS, Path: d.Path} }
