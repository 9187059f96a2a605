// Package guest runs guest code — Swarm task bodies and baseline thread
// bodies — against the simulated machine. Guest code is ordinary Go written
// against the Env interface; every architectural operation (load, store,
// compute, enqueue, ...) is surrendered to the simulator, which times it,
// applies it atomically, and resumes the guest.
//
// Two transports implement the surrender: Coroutine runs the guest as an
// iter.Pull coroutine on the caller's goroutine (used when several guests
// interleave: Swarm cores, baseline threads), and direct execution, where
// the simulator embeds an Env that applies operations inline (used for
// single-threaded serial baselines and the oracle profiler, which need no
// interleaving). A coroutine switches stacks once per result-bearing
// operation (Load, Alloc, CAS, FetchAdd): result-free operations are
// buffered, and the guest runs ahead past them (see Coroutine).
//
// Guest code obeys a purity contract: between surrendered operations a
// body touches only coroutine-local state (locals, its Env, read-only
// captured data) — every machine-visible effect flows through a yielded
// Op. Four things rest on it. Simulations are deterministic: a run is a
// function of its configuration alone. A coroutine may run a body ahead of
// the machine past result-free operations, since nothing the body does in
// between is visible and it sees the same loaded values either way. The
// native runtime (internal/rt) can run the same bodies concurrently on
// host worker goroutines against its own Env. And rt's DebugChecks mode
// can re-execute each committed body against committed state and demand
// the same effects, which is how an impure body is caught.
package guest

import (
	"fmt"
	"iter"
	"sync"

	"github.com/swarm-sim/swarm/internal/tsdom"
)

// OpKind discriminates guest operations.
type OpKind int

const (
	// OpLoad reads the 64-bit word at Addr.
	OpLoad OpKind = iota
	// OpStore writes Val to the word at Addr.
	OpStore
	// OpWork models N cycles of non-memory instructions.
	OpWork
	// OpEnqueue creates a child task described by Task (Swarm only).
	OpEnqueue
	// OpAlloc allocates N bytes of guest memory; result is the address.
	OpAlloc
	// OpFree releases [Addr, Addr+N).
	OpFree
	// OpCAS compares the word at Addr with Old and, if equal, stores Val.
	// Result.OK reports success (thread mode only).
	OpCAS
	// OpFetchAdd atomically adds Val to the word at Addr and returns the
	// old value (thread mode only).
	OpFetchAdd
	// OpDone signals that the guest function returned.
	OpDone
	// OpAborted signals that the guest unwound after an abort.
	OpAborted
)

// FnID is a typed handle to a registered task function: architecturally
// the "function pointer" slot of a task descriptor (an index into the
// program's function table). Handles come from FnTable.Fn (named
// registration); the zero value names the first registered function, so
// single-function programs keep working with untyped literals.
type FnID int

// TaskDesc is an architectural task descriptor: function handle (an index
// into the program's function table), a 64-bit timestamp, and up to three
// 64-bit argument words (§4.1, Table 2). Hint optionally carries a spatial
// locality key for hint-based task mappers; it is metadata consumed by the
// task unit at enqueue time and costs nothing architecturally.
//
// Path is the nested fork vector ordering the task within its timestamp
// slot (see internal/tsdom): empty for flat tasks, extended one level per
// Fork/EnqueueSub. Plain enqueues inherit the parent's path verbatim, so
// a subtask's children stay inside its slice of the slot.
type TaskDesc struct {
	Fn   FnID
	TS   uint64
	Path tsdom.Path
	Hint uint64 // spatial key + 1; 0 = no hint (see WithHint/HintKey)
	Args [3]uint64
}

// WithHint returns the descriptor tagged with a spatial hint key: a stable
// application-level locality handle (destination vertex, warehouse, stream
// source) that hint-based mappers use to pick the task's home tile.
func (d TaskDesc) WithHint(key uint64) TaskDesc {
	d.Hint = key + 1
	return d
}

// HintKey returns the spatial hint key and whether one was set.
func (d TaskDesc) HintKey() (uint64, bool) {
	if d.Hint == 0 {
		return 0, false
	}
	return d.Hint - 1, true
}

// Sub returns the descriptor of d's i-th nested subtask: same timestamp
// slot, path extended by fork index i. Root task sets use it to seed a
// fork-join domain below one programmer timestamp; inside a running task,
// Fork/EnqueueSub assign fork indices automatically.
func (d TaskDesc) Sub(i uint64) TaskDesc {
	d.Path = d.Path.Child(i)
	return d
}

// The child rules below are shared by every TaskEnv (the simulator's,
// swarm-rt's and the oracle's), so a program one backend rejects every
// backend rejects. A spatial hint is added with WithHint, where
// WithHint(NoHint) leaves the child unhinted. The pointer receivers keep
// the enqueue paths from copying the parent's descriptor.

// Child returns the descriptor of a task that d's body enqueues at ts: it
// inherits d's nested path, staying inside d's slice of its timestamp
// slot. A child timestamp before d's panics: tasks create children at
// equal or later timestamps (§2.1).
func (d *TaskDesc) Child(fn FnID, ts uint64, args [3]uint64) TaskDesc {
	if ts < d.TS {
		childBeforeParent(ts, d.TS)
	}
	return TaskDesc{Fn: fn, TS: ts, Path: d.Path, Args: args}
}

// Forked returns the descriptor of the child d's body forks with fork
// index fork: d's timestamp, d's path extended by fork. A body hands out
// fork indices 0, 1, 2, ... in program order, starting again at 0 when
// it re-executes.
func (d *TaskDesc) Forked(fork uint64, fn FnID, args [3]uint64) TaskDesc {
	return TaskDesc{Fn: fn, TS: d.TS, Path: d.Path.Child(fork), Args: args}
}

// ArgWords packs a variadic argument list into a descriptor's three
// argument words. More words panic: larger arguments go through memory
// (§4.1).
func ArgWords(args []uint64) (a [3]uint64) {
	if len(args) > len(a) {
		panic("guest: task descriptors hold at most 3 argument words; allocate memory for more (§4.1)")
	}
	copy(a[:], args)
	return a
}

// childBeforeParent keeps the panic's formatting out of line, so Child
// stays small enough to inline into the enqueue paths.
//
//go:noinline
func childBeforeParent(ts, parent uint64) {
	panic(fmt.Sprintf("guest: child timestamp %d before parent %d", ts, parent))
}

// Op is one operation surrendered by a guest.
type Op struct {
	Kind OpKind
	Addr uint64
	Val  uint64
	Old  uint64 // OpCAS expected value
	N    uint64 // OpWork cycles / OpAlloc+OpFree size
	Task TaskDesc
}

// Result is the simulator's reply to an Op.
type Result struct {
	Val   uint64
	OK    bool
	Abort bool // unwind the guest now (speculative task squashed)
}

// Env is the architectural interface guest code runs against. All guest
// data lives in simulated memory; all costs flow through these calls.
type Env interface {
	// Load returns the 64-bit word at the (8-byte aligned) address.
	Load(addr uint64) uint64
	// Store writes the 64-bit word at the (8-byte aligned) address.
	Store(addr, val uint64)
	// Work charges n cycles of non-memory instructions.
	Work(n uint64)
	// Alloc returns the address of a fresh n-byte guest region.
	Alloc(n uint64) uint64
	// Free releases an allocation (task-aware: reuse happens only after
	// the freeing task commits).
	Free(addr, n uint64)
}

// TaskEnv is the environment visible to a Swarm task (§4.1's API:
// taskFn(timestamp, args...) plus enqueueTask).
type TaskEnv interface {
	Env
	// Timestamp returns the task's programmer-assigned timestamp.
	Timestamp() uint64
	// Arg returns the i-th argument word (i < 3).
	Arg(i int) uint64
	// Enqueue creates a child task with an equal or later timestamp.
	Enqueue(fn FnID, ts uint64, args ...uint64)
	// EnqueueArgs is Enqueue with a fixed argument array. Variadic calls
	// through the TaskEnv interface heap-allocate their argument slice (the
	// compiler cannot prove the callee drops it), so per-edge enqueue loops
	// use this form; unused argument words are zero.
	EnqueueArgs(fn FnID, ts uint64, args [3]uint64)
	// EnqueueHinted is EnqueueArgs plus a spatial hint key (see
	// TaskDesc.WithHint): hint-based mappers send the child to the key's
	// home tile; other mappers ignore it. The hint is free — it adds no
	// instructions, memory accesses or descriptor-transfer cost.
	EnqueueHinted(fn FnID, ts uint64, hint uint64, args [3]uint64)
	// Fork creates a child ordered *within* this task's timestamp slot:
	// the child runs at the same timestamp with the task's path extended
	// by the next fork index, so it orders after this task (and after all
	// previously forked siblings with their whole subtrees) but before
	// anything this task's slot precedes. Fork indices restart at zero on
	// every (re-)execution of the body, so an aborted-and-retried task
	// forks an identical subtree.
	Fork(fn FnID, args ...uint64)
	// EnqueueSub is Fork with a fixed argument array (see EnqueueArgs for
	// why) plus an optional spatial hint key; hint = NoHint leaves the
	// child unhinted.
	EnqueueSub(fn FnID, hint uint64, args [3]uint64)
}

// NoHint marks an EnqueueSub child with no spatial hint key.
const NoHint = ^uint64(0)

// ThreadEnv is the environment visible to a software-baseline thread.
type ThreadEnv interface {
	Env
	// ID returns the thread id, in [0, Threads()).
	ID() int
	// Threads returns the thread count.
	Threads() int
	// CAS atomically compares-and-swaps the word at addr.
	CAS(addr, old, new uint64) bool
	// FetchAdd atomically adds delta and returns the previous value.
	FetchAdd(addr, delta uint64) uint64
}

// TaskFn is a Swarm task body.
type TaskFn func(TaskEnv)

// ThreadFn is a baseline thread body.
type ThreadFn func(ThreadEnv)

// abortSignal unwinds a guest coroutine when its task is squashed.
type abortSignal struct{}

// opPanic marks the position of a captured guest panic in a coroutine's
// op buffer; Resume never hands it out (see Coroutine).
const opPanic OpKind = -1

// postLimit bounds how many result-free ops a guest runs ahead of the
// machine before it switches anyway. It caps the per-coroutine buffer and
// how much host work an aborted body wastes.
const postLimit = 32

// Coroutine runs one guest body against the machine. The transport is
// iter.Pull: the runtime switches stacks directly (no scheduler, no
// channels, no locks), which is an order of magnitude cheaper per
// surrendered operation than a goroutine rendezvous and keeps the whole
// simulation on one OS thread.
//
// The guest runs ahead past result-free ops. Store, Work, Enqueue (and
// its variants) and Free append to an op buffer and return at once; the
// guest switches to the machine only at a result-bearing op (Load, Alloc,
// CAS, FetchAdd), at body end, or when postLimit ops are buffered. Resume
// hands the buffered ops out one per call and switches back in only once
// the buffer is drained, so the machine still applies each op when its
// predecessor's event fires. The purity contract (package doc) makes this
// invisible: between ops a body touches only coroutine-local state, and
// it sees the same loaded values whenever it runs. Three edge cases keep
// the one-op-per-switch semantics:
//   - Resume(Abort) drops the unconsumed buffer and switches in to unwind
//     the guest, which answers OpAborted after running its defers.
//   - A guest whose body already ended (parked at its tail, OpDone still
//     buffered) answers an abort with OpAborted without switching in: its
//     job is never re-run.
//   - A non-abort guest panic is captured at its position in the buffer.
//     Resume re-raises it when the machine reaches that position; if the
//     task aborts first, the panic is dropped, exactly as the body would
//     have been unwound before reaching it.
//
// Task coroutines are pooled: the pulled iterator survives its task body
// and parks until a later StartTask hands it the next one (tasks are tiny
// and every re-execution after an abort restarts the body, so per-start
// coroutine and environment allocations dominated the machine's host-side
// cost). Thread coroutines (StartThread) live exactly as long as their
// body.
type Coroutine struct {
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool // set by the sequence body on first entry

	// res carries the machine's reply into the guest: Resume writes it,
	// then switches to the guest, which reads it on return from yield.
	res Result

	// ops[head:n] are the guest's ops not yet handed out. The guest
	// appends only while it runs, and it runs only after Resume has
	// handed out every op and reset n and head to zero. The extra slot
	// holds the op the guest switches at (result-bearing or tail).
	ops     [postLimit + 1]Op
	n, head int

	// between is set while the guest is parked outside a body: at its
	// tail yield after a body ended, or before its first body.
	between  bool
	panicVal any // captured guest panic, buffered as opPanic

	// job carries the next task body into a pooled coroutine: StartTask
	// writes it before the first Resume switches in.
	job    taskJob
	pooled bool
	env    coTaskEnv // reusable task environment (pooled coroutines only)
	done   bool
}

// taskJob is one task body handed to a pooled coroutine.
type taskJob struct {
	fn   TaskFn
	desc TaskDesc
}

// taskPool parks idle task coroutines. It is shared by every machine in
// the process (the experiment harness runs many concurrently), so access
// is mutex-guarded; within one machine everything is single-threaded.
var taskPool struct {
	sync.Mutex
	free []*Coroutine
}

// StartTask hands a Swarm task body to a pooled coroutine (reusing a
// parked one when available); the body starts running at the first Resume.
func StartTask(fn TaskFn, desc TaskDesc) *Coroutine {
	taskPool.Lock()
	var co *Coroutine
	if n := len(taskPool.free); n > 0 {
		co = taskPool.free[n-1]
		taskPool.free[n-1] = nil
		taskPool.free = taskPool.free[:n-1]
	}
	taskPool.Unlock()
	if co == nil {
		co = &Coroutine{pooled: true, between: true}
		co.env = coTaskEnv{coEnv: coEnv{co: co}}
		co.next, co.stop = iter.Pull(co.taskSeq)
	}
	co.done = false
	co.job = taskJob{fn, desc}
	return co
}

// taskSeq is a pooled coroutine's body loop: one task body per iteration,
// each ending in a tail op (see end), parking between bodies simply by
// waiting in the tail yield for the next Resume.
func (co *Coroutine) taskSeq(yield func(struct{}) bool) {
	co.yieldFn = yield
	for {
		co.between = false
		j := co.job
		co.env.desc = j.desc
		co.env.forks = 0
		co.end(runGuest(func() { j.fn(&co.env) }))
		if !yield(struct{}{}) {
			return
		}
		co.reraise()
	}
}

// end appends the tail op recording how a body ended. An abort discards
// whatever the unwind posted; a captured panic waits behind the ops the
// body posted before it.
func (co *Coroutine) end(aborted bool, p any) {
	co.between = true
	switch {
	case aborted:
		co.n = 0
		co.slot(OpAborted)
	case p != nil:
		co.panicVal = p
		co.slot(opPanic)
	default:
		co.slot(OpDone)
	}
}

// reraise runs in the guest when the machine switches into its tail yield:
// if the machine reached a captured panic, the panic resumes here, and
// iter.Pull carries it out of Resume as if the body had panicked just now.
func (co *Coroutine) reraise() {
	if p := co.panicVal; p != nil {
		co.panicVal = nil
		panic(p)
	}
}

// runGuest executes a guest body, reporting an abort unwind as aborted and
// capturing any other panic as p.
func runGuest(body func()) (aborted bool, p any) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				aborted = true
				return
			}
			p = r
		}
	}()
	body()
	return false, nil
}

// Recycle parks a completed task coroutine for reuse by a later StartTask.
// It is a no-op for thread coroutines and for coroutines that have not
// finished (a machine torn down mid-run keeps them; the GC collects
// unreferenced pulled iterators).
func (co *Coroutine) Recycle() {
	if !co.pooled || !co.done {
		return
	}
	// Drop the finished body's closure so a parked coroutine does not keep
	// its machine's guest state reachable for the process lifetime.
	co.job = taskJob{}
	co.env.desc = TaskDesc{}
	taskPool.Lock()
	taskPool.free = append(taskPool.free, co)
	taskPool.Unlock()
}

// StartThread launches a coroutine running a baseline thread body.
func StartThread(fn ThreadFn, id, threads int) *Coroutine {
	co := &Coroutine{between: true}
	env := &coThreadEnv{coEnv{co: co}, id, threads}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yieldFn = yield
		co.between = false
		co.end(runGuest(func() { fn(env) }))
		if yield(struct{}{}) {
			co.reraise()
		}
	})
	return co
}

// Resume delivers the machine's reply to the last op it handed out and
// returns the guest's next operation. The Op points into the coroutine's
// buffer and is valid until the next Resume. After an Op of kind OpDone or
// OpAborted, Resume must not be called again.
func (co *Coroutine) Resume(r Result) *Op {
	if co.done {
		panic("guest: Resume after completion")
	}
	switch {
	case r.Abort:
		co.n, co.head = 0, 0
		if co.between {
			// The body already ended: nothing to unwind. Its captured
			// panic, if any, never happened.
			co.panicVal = nil
			co.slot(OpAborted)
		} else {
			co.res = r
			co.switchIn()
		}
	case co.head == co.n:
		co.n, co.head = 0, 0
		co.res = r
		co.switchIn()
	}
	op := &co.ops[co.head]
	co.head++
	switch op.Kind {
	case OpDone, OpAborted:
		co.done = true
		if !co.pooled {
			co.stop() // end a thread coroutine parked at its tail
		}
	case opPanic:
		co.done, co.pooled = true, false
		co.switchIn() // re-raises the guest's panic (see reraise)
	}
	return op
}

// switchIn runs the guest until it next switches out.
func (co *Coroutine) switchIn() {
	if _, ok := co.next(); !ok {
		panic("guest: coroutine terminated without yielding")
	}
}

// Done reports whether the coroutine has finished (OpDone or OpAborted).
func (co *Coroutine) Done() bool { return co.done }

// slot appends an op of kind k to the buffer and returns it for the
// caller to fill in.
func (co *Coroutine) slot(k OpKind) *Op {
	op := &co.ops[co.n]
	co.n++
	*op = Op{Kind: k}
	return op
}

// post appends a result-free op without switching, first handing a full
// buffer to the machine.
func (co *Coroutine) post(k OpKind) *Op {
	if co.n == postLimit {
		co.wait()
	}
	return co.slot(k)
}

// wait switches to the machine until it has applied every buffered op and
// returns its reply to the last one. An abort reply unwinds the guest.
func (co *Coroutine) wait() Result {
	if !co.yieldFn(struct{}{}) || co.res.Abort {
		// Squashed, or the puller was stopped: unwind the guest.
		panic(abortSignal{})
	}
	return co.res
}

// coEnv implements Env over the run-ahead protocol.
type coEnv struct{ co *Coroutine }

func (e *coEnv) Load(addr uint64) uint64 {
	e.co.slot(OpLoad).Addr = addr
	return e.co.wait().Val
}

func (e *coEnv) Store(addr, val uint64) {
	op := e.co.post(OpStore)
	op.Addr, op.Val = addr, val
}

func (e *coEnv) Work(n uint64) {
	if n > 0 {
		e.co.post(OpWork).N = n
	}
}

func (e *coEnv) Alloc(n uint64) uint64 {
	e.co.slot(OpAlloc).N = n
	return e.co.wait().Val
}

func (e *coEnv) Free(addr, n uint64) {
	op := e.co.post(OpFree)
	op.Addr, op.N = addr, n
}

type coTaskEnv struct {
	coEnv
	desc  TaskDesc
	forks uint64 // fork indices handed out by this body run
}

func (e *coTaskEnv) Timestamp() uint64 { return e.desc.TS }
func (e *coTaskEnv) Arg(i int) uint64  { return e.desc.Args[i] }
func (e *coTaskEnv) Enqueue(fn FnID, ts uint64, args ...uint64) {
	e.EnqueueArgs(fn, ts, ArgWords(args))
}

func (e *coTaskEnv) EnqueueArgs(fn FnID, ts uint64, args [3]uint64) {
	d := e.desc.Child(fn, ts, args)
	e.co.post(OpEnqueue).Task = d
}

func (e *coTaskEnv) EnqueueHinted(fn FnID, ts uint64, hint uint64, args [3]uint64) {
	d := e.desc.Child(fn, ts, args).WithHint(hint)
	e.co.post(OpEnqueue).Task = d
}

func (e *coTaskEnv) Fork(fn FnID, args ...uint64) {
	e.EnqueueSub(fn, NoHint, ArgWords(args))
}

func (e *coTaskEnv) EnqueueSub(fn FnID, hint uint64, args [3]uint64) {
	d := e.desc.Forked(e.forks, fn, args).WithHint(hint)
	e.forks++
	e.co.post(OpEnqueue).Task = d
}

type coThreadEnv struct {
	coEnv
	id, threads int
}

func (e *coThreadEnv) ID() int      { return e.id }
func (e *coThreadEnv) Threads() int { return e.threads }
func (e *coThreadEnv) CAS(addr, old, new uint64) bool {
	op := e.co.slot(OpCAS)
	op.Addr, op.Old, op.Val = addr, old, new
	return e.co.wait().OK
}

func (e *coThreadEnv) FetchAdd(addr, delta uint64) uint64 {
	op := e.co.slot(OpFetchAdd)
	op.Addr, op.Val = addr, delta
	return e.co.wait().Val
}
