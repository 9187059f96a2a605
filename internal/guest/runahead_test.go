package guest

import (
	"fmt"
	"reflect"
	"testing"
)

// refEnv is the one-op-per-switch reference: it applies every op the
// moment the body issues it, through the same answer function a test
// drives a Coroutine with, and unwinds on an Abort reply. Comparing a
// coroutine's op stream against it pins run-ahead as invisible.
type refEnv struct {
	desc   TaskDesc
	forks  uint64
	ops    []Op
	answer func(i int, op Op) Result
}

func (e *refEnv) do(op Op) Result {
	e.ops = append(e.ops, op)
	r := e.answer(len(e.ops)-1, op)
	if r.Abort {
		panic(abortSignal{})
	}
	return r
}

func (e *refEnv) Load(addr uint64) uint64 { return e.do(Op{Kind: OpLoad, Addr: addr}).Val }
func (e *refEnv) Store(addr, val uint64)  { e.do(Op{Kind: OpStore, Addr: addr, Val: val}) }
func (e *refEnv) Work(n uint64) {
	if n > 0 {
		e.do(Op{Kind: OpWork, N: n})
	}
}
func (e *refEnv) Alloc(n uint64) uint64 { return e.do(Op{Kind: OpAlloc, N: n}).Val }
func (e *refEnv) Free(addr, n uint64)   { e.do(Op{Kind: OpFree, Addr: addr, N: n}) }
func (e *refEnv) Timestamp() uint64     { return e.desc.TS }
func (e *refEnv) Arg(i int) uint64      { return e.desc.Args[i] }
func (e *refEnv) Enqueue(fn FnID, ts uint64, args ...uint64) {
	var a [3]uint64
	copy(a[:], args)
	e.EnqueueArgs(fn, ts, a)
}
func (e *refEnv) EnqueueArgs(fn FnID, ts uint64, args [3]uint64) {
	e.do(Op{Kind: OpEnqueue, Task: TaskDesc{Fn: fn, TS: ts, Path: e.desc.Path, Args: args}})
}
func (e *refEnv) EnqueueHinted(fn FnID, ts uint64, hint uint64, args [3]uint64) {
	e.do(Op{Kind: OpEnqueue, Task: TaskDesc{Fn: fn, TS: ts, Path: e.desc.Path, Args: args}.WithHint(hint)})
}
func (e *refEnv) Fork(fn FnID, args ...uint64) {
	var a [3]uint64
	copy(a[:], args)
	e.EnqueueSub(fn, NoHint, a)
}
func (e *refEnv) EnqueueSub(fn FnID, hint uint64, args [3]uint64) {
	d := TaskDesc{Fn: fn, TS: e.desc.TS, Path: e.desc.Path.Child(e.forks), Args: args}
	e.forks++
	if hint != NoHint {
		d = d.WithHint(hint)
	}
	e.do(Op{Kind: OpEnqueue, Task: d})
}
func (e *refEnv) ID() int      { return 1 }
func (e *refEnv) Threads() int { return 4 }
func (e *refEnv) CAS(addr, old, new uint64) bool {
	return e.do(Op{Kind: OpCAS, Addr: addr, Old: old, Val: new}).OK
}
func (e *refEnv) FetchAdd(addr, delta uint64) uint64 {
	return e.do(Op{Kind: OpFetchAdd, Addr: addr, Val: delta}).Val
}

// outcome is how a run ended: the ops observed (ending in OpDone or
// OpAborted unless it panicked) and the panic value, if any.
type outcome struct {
	ops   []Op
	panic any
}

// runRef runs body one op per switch.
func runRef(desc TaskDesc, answer func(int, Op) Result, body func(*refEnv)) outcome {
	e := &refEnv{desc: desc, answer: answer}
	aborted, p := runGuest(func() { body(e) })
	switch {
	case aborted:
		e.ops = append(e.ops, Op{Kind: OpAborted})
	case p == nil:
		e.ops = append(e.ops, Op{Kind: OpDone})
	}
	return outcome{e.ops, p}
}

// runCo drives a coroutine with answer until it finishes or panics.
func runCo(co *Coroutine, answer func(int, Op) Result) (out outcome) {
	defer func() { out.panic = recover() }()
	r := Result{}
	for {
		op := *co.Resume(r)
		out.ops = append(out.ops, op)
		if op.Kind == OpDone || op.Kind == OpAborted {
			return out
		}
		r = answer(len(out.ops)-1, op)
	}
}

// answerAll replies deterministically from the op's index and content,
// aborting at op abortAt (never if negative).
func answerAll(abortAt int) func(int, Op) Result {
	return func(i int, op Op) Result {
		if i == abortAt {
			return Result{Abort: true}
		}
		return Result{Val: op.Addr*3 + uint64(i), OK: (op.Addr+uint64(i))%2 == 0}
	}
}

func sameOutcome(t *testing.T, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.ops, want.ops) {
		t.Fatalf("op stream differs from the one-op-per-switch reference\n got %+v\nwant %+v", got.ops, want.ops)
	}
	if fmt.Sprint(got.panic) != fmt.Sprint(want.panic) {
		t.Fatalf("panic = %v, reference %v", got.panic, want.panic)
	}
}

// mixedTask issues every task op kind, feeding loaded values into later
// ops so a misdelivered result changes the stream.
func mixedTask(e TaskEnv) {
	a := e.Load(0x40)
	e.Store(0x48, a+1)
	e.Work(a%7 + 1)
	e.Enqueue(2, e.Timestamp()+a%5, a, 9)
	e.EnqueueArgs(3, e.Timestamp()+1, [3]uint64{a, a + 1, a + 2})
	e.EnqueueHinted(4, e.Timestamp()+2, a%3, [3]uint64{a})
	e.Fork(5, a)
	p := e.Alloc(64 + a%8)
	e.Store(p, a)
	e.EnqueueSub(6, 17, [3]uint64{p})
	e.EnqueueSub(7, NoHint, [3]uint64{})
	b := e.Load(p + 8)
	e.Free(p, 64)
	e.Work(0)
	e.Store(0x50, a^b)
}

func mixedThread(e ThreadEnv) {
	a := e.Load(0x80)
	e.Store(0x88, a)
	e.Work(3)
	if e.CAS(0x90, a, a+1) {
		e.Store(0x98, 1)
	}
	p := e.Alloc(16)
	e.Free(p, 16)
	old := e.FetchAdd(0xa0, a)
	e.Store(0xa8, old+uint64(e.ID()+e.Threads()))
}

func TestRunAheadMatchesReference(t *testing.T) {
	desc := TaskDesc{Fn: 1, TS: 10, Path: TaskDesc{}.Sub(3).Path, Args: [3]uint64{5}}
	want := runRef(desc, answerAll(-1), func(e *refEnv) { mixedTask(e) })
	sameOutcome(t, runCo(StartTask(mixedTask, desc), answerAll(-1)), want)

	wantTh := runRef(TaskDesc{}, answerAll(-1), func(e *refEnv) { mixedThread(e) })
	sameOutcome(t, runCo(StartThread(mixedThread, 1, 4), answerAll(-1)), wantTh)
}

func TestRunAheadSkipsSwitches(t *testing.T) {
	// Resume may switch into the guest only when its buffer is drained:
	// between the Load switches the guest posts four ops at once.
	var handed, seen int
	co := StartTask(func(e TaskEnv) {
		e.Load(0)
		seen = handed
		e.Store(8, 1)
		e.Work(2)
		e.Enqueue(0, 0)
		e.Free(16, 8)
		e.Load(24)
		if handed-seen != 5 {
			t.Errorf("guest resumed after %d handed-out ops, want 5 (4 posted + 1 load)", handed-seen)
		}
	}, TaskDesc{})
	r := Result{}
	for {
		op := co.Resume(r)
		handed++
		if op.Kind == OpDone {
			break
		}
		r = Result{}
	}
	co.Recycle()
}

func TestPostLimitFlushes(t *testing.T) {
	// More than postLimit stores and no loads: the guest must switch out
	// every postLimit ops and never run further ahead than that.
	const n = 3*postLimit + 5
	var handed int
	maxAhead := 0
	co := StartTask(func(e TaskEnv) {
		for i := uint64(0); i < n; i++ {
			e.Store(i*8, i)
			if ahead := int(i) + 1 - handed; ahead > maxAhead {
				maxAhead = ahead
			}
		}
	}, TaskDesc{})
	var ops []Op
	r := Result{}
	for {
		op := co.Resume(r)
		handed++
		if op.Kind == OpDone {
			break
		}
		ops = append(ops, *op)
	}
	if len(ops) != n {
		t.Fatalf("got %d stores, want %d", len(ops), n)
	}
	for i, op := range ops {
		if op.Kind != OpStore || op.Addr != uint64(i)*8 || op.Val != uint64(i) {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
	if maxAhead > postLimit {
		t.Fatalf("guest ran %d ops ahead of the machine, limit %d", maxAhead, postLimit)
	}
	co.Recycle()
}

func TestAbortAtBufferedOp(t *testing.T) {
	deferred := false
	co := StartTask(func(e TaskEnv) {
		defer func() { deferred = true }()
		defer e.Store(0x99, 1) // posted during the unwind: discarded
		e.Load(0)
		e.Store(8, 1)
		e.Store(16, 2) // aborted while this posted op is pending
		e.Work(4)
		e.Load(24)
		t.Error("guest ran past a load after its task aborted")
	}, TaskDesc{})
	out := runCo(co, answerAll(2))
	kinds := []OpKind{OpLoad, OpStore, OpStore, OpAborted}
	if len(out.ops) != len(kinds) {
		t.Fatalf("ops = %+v", out.ops)
	}
	for i, k := range kinds {
		if out.ops[i].Kind != k {
			t.Fatalf("op %d = %v, want %v", i, out.ops[i].Kind, k)
		}
	}
	if !deferred {
		t.Fatal("defer did not run during the abort unwind")
	}
	if !co.Done() {
		t.Fatal("aborted coroutine not done")
	}
	co.Recycle()
}

func TestAbortAtDoneTail(t *testing.T) {
	// The body posts only result-free ops, so it ends at its first
	// switch and parks at its tail with OpDone buffered. An abort there
	// must answer OpAborted without re-running the body, and the
	// recycled coroutine must run the next job, not the old one.
	runs, deferred := 0, 0
	co := StartTask(func(e TaskEnv) {
		defer func() { deferred++ }()
		runs++
		e.Store(8, 1)
		e.Store(16, 2)
	}, TaskDesc{})
	out := runCo(co, answerAll(0))
	if len(out.ops) != 2 || out.ops[0].Kind != OpStore || out.ops[1].Kind != OpAborted {
		t.Fatalf("ops = %+v, want [Store, Aborted]", out.ops)
	}
	if runs != 1 || deferred != 1 {
		t.Fatalf("body ran %d times (%d defers), want 1", runs, deferred)
	}
	co.Recycle()

	next := false
	co2 := StartTask(func(e TaskEnv) { next = e.Load(0) == 7 }, TaskDesc{})
	if co2 != co {
		t.Fatal("pool did not hand back the recycled coroutine")
	}
	out = runCo(co2, func(int, Op) Result { return Result{Val: 7} })
	if len(out.ops) != 2 || out.ops[0].Kind != OpLoad || out.ops[1].Kind != OpDone {
		t.Fatalf("reused coroutine ops = %+v", out.ops)
	}
	if !next || runs != 1 {
		t.Fatalf("reused coroutine ran the wrong job (next=%v, old runs=%d)", next, runs)
	}
	co2.Recycle()
}

func TestPanicSurfacesAtItsPosition(t *testing.T) {
	deferred := false
	co := StartTask(func(e TaskEnv) {
		defer func() { deferred = true }()
		e.Store(8, 1)
		e.Work(3)
		panic("boom")
	}, TaskDesc{})
	for i, want := range []OpKind{OpStore, OpWork} {
		if op := co.Resume(Result{}); op.Kind != want {
			t.Fatalf("op %d = %v, want %v", i, op.Kind, want)
		}
	}
	if !deferred {
		t.Fatal("the body's defers should have run when it panicked")
	}
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the guest's panic", p)
			}
		}()
		co.Resume(Result{})
		t.Fatal("Resume did not re-raise the guest panic at its position")
	}()
}

func TestPanicDroppedWhenAbortedFirst(t *testing.T) {
	co := StartTask(func(e TaskEnv) {
		e.Store(8, 1)
		e.Store(16, 2)
		panic("misspeculated")
	}, TaskDesc{})
	out := runCo(co, answerAll(1))
	if out.panic != nil {
		t.Fatalf("aborted task raised %v", out.panic)
	}
	if n := len(out.ops); n != 3 || out.ops[n-1].Kind != OpAborted {
		t.Fatalf("ops = %+v, want two stores then OpAborted", out.ops)
	}
	co.Recycle()
	// The coroutine is clean: a recycled one runs its next job normally.
	co2 := StartTask(func(e TaskEnv) { e.Work(1) }, TaskDesc{})
	out = runCo(co2, answerAll(-1))
	if out.panic != nil || len(out.ops) != 2 || out.ops[1].Kind != OpDone {
		t.Fatalf("reused coroutine outcome = %+v", out)
	}
	co2.Recycle()
}

// scriptBody interprets a fuzz script as a task body: each byte picks an
// op, and loaded values feed into later operands.
func scriptBody(script []byte) func(TaskEnv) {
	return func(e TaskEnv) {
		acc := e.Timestamp()
		for i, b := range script {
			x := uint64(b)
			switch b % 9 {
			case 0, 1:
				acc += e.Load(x * 8)
			case 2, 3:
				e.Store(x*8, acc)
			case 4:
				e.Work(acc%5 + x%3)
			case 5:
				e.EnqueueArgs(FnID(x%4), e.Timestamp()+acc%3, [3]uint64{acc, x})
			case 6:
				e.EnqueueSub(FnID(x%4), acc%3, [3]uint64{uint64(i)})
			case 7:
				p := e.Alloc(8 + x)
				e.Free(p, 8+x)
			case 8:
				if acc%4 == 0 {
					panic(fmt.Sprintf("script panic at %d", i))
				}
			}
		}
	}
}

// FuzzRunAhead drives random op scripts with a random abort point and
// checks the coroutine's op stream, results and panics against the
// one-op-per-switch reference.
func FuzzRunAhead(f *testing.F) {
	f.Add([]byte{0, 2, 4, 5, 6, 7, 1, 3}, 3)
	f.Add(make([]byte, 3*postLimit), -1)
	f.Add([]byte{2, 2, 2, 8, 0}, 1)
	f.Add([]byte{5, 5, 5, 5, 17}, 9)
	f.Fuzz(func(t *testing.T, script []byte, abortAt int) {
		if len(script) > 512 {
			script = script[:512]
		}
		desc := TaskDesc{TS: 4, Args: [3]uint64{1}}
		body := scriptBody(script)
		want := runRef(desc, answerAll(abortAt), func(e *refEnv) { body(e) })
		co := StartTask(body, desc)
		sameOutcome(t, runCo(co, answerAll(abortAt)), want)
		co.Recycle() // a no-op unless finished; reuse must stay clean
	})
}
