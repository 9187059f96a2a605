package rt

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

// opCap bounds the operations one task attempt may issue. Inconsistent
// speculative reads (a task observing words from two different commits)
// can send pure guest code into a loop that committed state would never
// produce; the cap converts the loop into an abort. The budget is far
// above any legitimate task (the suite's tasks issue tens of operations;
// serial-grade bodies run millions), so tripping it from a *valid* read
// set is reported as a genuine runaway instead of retried forever.
const opCap = 1 << 24

// opCapPanic is the sentinel thrown when a task attempt exhausts opCap.
type opCapPanic struct{}

// entry is one attempt-set record. In the read set it holds the first
// value and version a task observed at addr: later loads of the same
// address return the cached value, so a task can never see two versions
// of one word (repeatable reads); cross-address inconsistency is caught
// by commit validation, the panic path, or the op cap. In the write set
// it holds the value buffered for addr (ver unused).
type entry struct {
	addr, val, ver uint64
}

// linearMax is the size up to which an attempt set is searched by a
// linear scan; past it, find indexes the set with a map. Swarm tasks
// touch a few words, so most attempts never build one: on perfbench's rt
// workload (seed 1, one pass) 0.10% of attempts pass 32 entries in
// either set, against 0.81% past 16, and 32 ran the pass fastest of 8,
// 16, 32 and 64 (treebuild, whose tasks read 17-32 words, gains most).
const linearMax = 32

// find returns the position of addr in set, or -1. Sets of up to
// linearMax entries are scanned; a larger one is looked up in *idx
// (address → position+1), which find creates on first need and brings up
// to date with the entries appended since. Addresses in a set are
// unique, so the map's size is the number of entries it already indexes.
func find(set []entry, idx *map[uint64]int32, addr uint64) int {
	if len(set) <= linearMax {
		for i := range set {
			if set[i].addr == addr {
				return i
			}
		}
		return -1
	}
	if *idx == nil {
		*idx = make(map[uint64]int32, 2*len(set))
	}
	for i := len(*idx); i < len(set); i++ {
		(*idx)[set[i].addr] = int32(i + 1)
	}
	return int((*idx)[addr]) - 1
}

// taskEnv implements guest.TaskEnv for one task attempt: reads come from
// the committed store (recorded in the read set), writes and child
// enqueues stay buffered until commit. The DebugChecks commit-time
// re-execution uses a second, fresh taskEnv and compares the buffered
// write/child sets for divergence. An attempt's taskEnv lives on one
// worker goroutine and takes no lock. Retired envs are reused by later
// attempts (reset).
type taskEnv struct {
	r    *Runtime
	desc guest.TaskDesc

	reads    []entry // read set in first-read order; validation walks it
	writes   []entry // write set in first-write order; commit replays it
	readIdx  map[uint64]int32
	writeIdx map[uint64]int32
	children []guest.TaskDesc
	frees    []span
	ops      uint64
	forks    uint64 // fork indices handed out by this attempt
	allocd   bool   // the attempt called Alloc (see Runtime.recheckLocked)
}

type span struct {
	addr, n uint64
}

// reset readies a retired env for a new attempt of desc, keeping the
// buffers' storage (sched.retireLocked bounds how much of it there is)
// and dropping any index maps.
func (e *taskEnv) reset(desc guest.TaskDesc) {
	*e = taskEnv{r: e.r, desc: desc, reads: e.reads[:0], writes: e.writes[:0],
		children: e.children[:0], frees: e.frees[:0]}
}

func (e *taskEnv) step(n uint64) {
	e.ops += n
	if e.ops > opCap {
		panic(opCapPanic{})
	}
}

// Load implements guest.Env: read-own-writes, then the read cache, then
// the committed store (recording the observed version).
func (e *taskEnv) Load(addr uint64) uint64 {
	e.step(1)
	if i := find(e.writes, &e.writeIdx, addr); i >= 0 {
		return e.writes[i].val
	}
	if i := find(e.reads, &e.readIdx, addr); i >= 0 {
		return e.reads[i].val
	}
	val, ver := e.r.store.read(addr)
	e.reads = append(e.reads, entry{addr: addr, val: val, ver: ver})
	return val
}

// Store implements guest.Env: buffered until commit. A misaligned
// address panics here, as mem.Memory.Store does under the simulator.
func (e *taskEnv) Store(addr, val uint64) {
	e.step(1)
	if !mem.WordAligned(addr) {
		panic(fmt.Sprintf("mem: misaligned store at %#x", addr))
	}
	if i := find(e.writes, &e.writeIdx, addr); i >= 0 {
		e.writes[i].val = val
		return
	}
	e.writes = append(e.writes, entry{addr: addr, val: val})
}

// Work implements guest.Env. The native runtime executes for real, so
// modeled compute cycles cost nothing here; they still count against the
// op cap so a loop spinning on Work alone cannot livelock an attempt.
func (e *taskEnv) Work(n uint64) { e.step(n) }

// Alloc implements guest.Env. Allocation is shared mutable host state,
// so it is mutex-guarded; an aborted attempt leaks its allocations (the
// idealized allocator never reuses a speculatively handed-out region, so
// the leak is benign). Note that in-task allocation makes addresses
// depend on speculative interleaving — none of the suite's Swarm task
// bodies allocate (layout happens in Build), and programs that want
// backend-identical final memory must keep it that way.
func (e *taskEnv) Alloc(n uint64) uint64 {
	e.step(1)
	e.allocd = true
	e.r.heapMu.Lock()
	defer e.r.heapMu.Unlock()
	return e.r.heap.Alloc(n)
}

// Free implements guest.Env: deferred to commit, as the task-aware
// allocator requires (speculatively freed memory is never reused).
func (e *taskEnv) Free(addr, n uint64) {
	e.step(1)
	e.frees = append(e.frees, span{addr: addr, n: n})
}

// Timestamp implements guest.TaskEnv.
func (e *taskEnv) Timestamp() uint64 { return e.desc.TS }

// Arg implements guest.TaskEnv.
func (e *taskEnv) Arg(i int) uint64 { return e.desc.Args[i] }

// argWords packs a variadic argument list into a task descriptor's words.
func argWords(args []uint64) (a [3]uint64) {
	if len(args) > len(a) {
		panic("guest: task descriptors hold at most 3 argument words; allocate memory for more (§4.1)")
	}
	copy(a[:], args)
	return a
}

// Enqueue implements guest.TaskEnv.
func (e *taskEnv) Enqueue(fn guest.FnID, ts uint64, args ...uint64) {
	e.EnqueueArgs(fn, ts, argWords(args))
}

// EnqueueArgs implements guest.TaskEnv: children are buffered and become
// runnable only when the parent commits, so a misspeculated parent's
// children never exist and aborts cannot cascade. Children inherit the
// parent's nested path, keeping them inside its slice of the slot.
func (e *taskEnv) EnqueueArgs(fn guest.FnID, ts uint64, args [3]uint64) {
	e.EnqueueHinted(fn, ts, guest.NoHint, args)
}

// EnqueueHinted implements guest.TaskEnv. Spatial hints steer the
// simulator's tile mappers; the native scheduler places work by virtual
// time only, so the hint is carried but unused. NoHint leaves the child
// unhinted (WithHint(NoHint) sets no key).
func (e *taskEnv) EnqueueHinted(fn guest.FnID, ts uint64, hint uint64, args [3]uint64) {
	if ts < e.desc.TS {
		panic(fmt.Sprintf("guest: child timestamp %d before parent %d", ts, e.desc.TS))
	}
	e.step(1)
	e.children = append(e.children, guest.TaskDesc{Fn: fn, TS: ts, Path: e.desc.Path, Args: args}.WithHint(hint))
}

// Fork implements guest.TaskEnv: a child ordered within the parent's
// timestamp slot, after previously forked siblings.
func (e *taskEnv) Fork(fn guest.FnID, args ...uint64) {
	e.EnqueueSub(fn, guest.NoHint, argWords(args))
}

// EnqueueSub implements guest.TaskEnv. Fork indices restart at zero on
// every attempt (each attempt starts from a fresh or reset taskEnv), so
// a retried task buffers an identical child set — which the DebugChecks
// re-execution comparison requires.
func (e *taskEnv) EnqueueSub(fn guest.FnID, hint uint64, args [3]uint64) {
	e.step(1)
	d := guest.TaskDesc{Fn: fn, TS: e.desc.TS, Path: e.desc.Path.Child(e.forks), Args: args}
	e.forks++
	e.children = append(e.children, d.WithHint(hint))
}
