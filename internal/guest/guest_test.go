package guest

import (
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/tsdom"
)

// drive runs a coroutine to completion, answering ops with the given
// function, and returns the ops observed.
func drive(co *Coroutine, answer func(Op) Result) []Op {
	var ops []Op
	r := Result{}
	for {
		op := *co.Resume(r)
		ops = append(ops, op)
		if op.Kind == OpDone || op.Kind == OpAborted {
			return ops
		}
		r = answer(op)
	}
}

func TestTaskProtocol(t *testing.T) {
	desc := TaskDesc{Fn: 3, TS: 42, Args: [3]uint64{7, 8, 9}}
	co := StartTask(func(e TaskEnv) {
		if e.Timestamp() != 42 || e.Arg(0) != 7 || e.Arg(2) != 9 {
			t.Error("descriptor not visible to task")
		}
		v := e.Load(0x100)
		e.Store(0x108, v+1)
		e.Work(5)
		e.Enqueue(1, 50, 11)
	}, desc)

	ops := drive(co, func(op Op) Result {
		if op.Kind == OpLoad {
			return Result{Val: 99}
		}
		return Result{}
	})

	want := []OpKind{OpLoad, OpStore, OpWork, OpEnqueue, OpDone}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i, k := range want {
		if ops[i].Kind != k {
			t.Fatalf("op %d = %v, want %v", i, ops[i].Kind, k)
		}
	}
	if ops[1].Addr != 0x108 || ops[1].Val != 100 {
		t.Fatalf("store op = %+v (load value not delivered)", ops[1])
	}
	if ops[3].Task.TS != 50 || ops[3].Task.Args[0] != 11 || ops[3].Task.Fn != 1 {
		t.Fatalf("enqueue op = %+v", ops[3].Task)
	}
	if !co.Done() {
		t.Fatal("coroutine not done")
	}
}

func TestAbortUnwinds(t *testing.T) {
	cleanedUp := false
	co := StartTask(func(e TaskEnv) {
		defer func() { cleanedUp = true }() // defers must still run
		e.Load(0x100)
		e.Load(0x200) // aborted here
		t.Error("guest ran past abort")
	}, TaskDesc{})

	n := 0
	ops := drive(co, func(op Op) Result {
		n++
		if n == 2 {
			return Result{Abort: true}
		}
		return Result{}
	})
	last := ops[len(ops)-1]
	if last.Kind != OpAborted {
		t.Fatalf("last op = %v, want OpAborted", last.Kind)
	}
	if !cleanedUp {
		t.Fatal("defer did not run during abort unwind")
	}
}

func TestZeroWorkElided(t *testing.T) {
	co := StartTask(func(e TaskEnv) {
		e.Work(0) // must not produce an op
		e.Work(3)
	}, TaskDesc{})
	ops := drive(co, func(Op) Result { return Result{} })
	if len(ops) != 2 || ops[0].Kind != OpWork || ops[0].N != 3 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestChildTimestampMonotonic(t *testing.T) {
	co := StartTask(func(e TaskEnv) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on earlier child timestamp")
			}
			// Unwind cleanly: panic again with abortSignal to satisfy
			// the wrapper? No - re-panic with a guest abort is wrong.
			// Just return; the recover swallowed the panic.
		}()
		e.Enqueue(0, 5) // parent TS is 10: must panic
	}, TaskDesc{TS: 10})
	drive(co, func(Op) Result { return Result{} })
}

func TestTooManyArgsPanics(t *testing.T) {
	co := StartTask(func(e TaskEnv) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on 4 argument words")
			}
		}()
		e.Enqueue(0, 10, 1, 2, 3, 4)
	}, TaskDesc{TS: 10})
	drive(co, func(Op) Result { return Result{} })
}

// panicValue runs f and returns what it panicked with (nil if nothing).
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestChildDescriptorRules pins the child rules every TaskEnv shares:
// Child inherits the parent's path and rejects an earlier timestamp,
// Forked extends the path by the fork index at the parent's timestamp,
// and ArgWords packs up to three words.
func TestChildDescriptorRules(t *testing.T) {
	parent := TaskDesc{Fn: 1, TS: 10, Path: tsdom.Root.Child(2), Hint: 9, Args: [3]uint64{7, 8, 9}}
	args := [3]uint64{4, 5, 6}
	for _, ts := range []uint64{10, 11, 1 << 40} {
		want := TaskDesc{Fn: 3, TS: ts, Path: parent.Path, Args: args}
		if got := parent.Child(3, ts, args); got != want {
			t.Errorf("Child(ts=%d) = %+v, want %+v", ts, got, want)
		}
	}
	v := panicValue(func() { parent.Child(3, 9, args) })
	if s, ok := v.(string); !ok || s != "guest: child timestamp 9 before parent 10" {
		t.Errorf("Child before parent panicked with %v", v)
	}
	for i := uint64(0); i < 3; i++ {
		want := TaskDesc{Fn: 3, TS: 10, Path: parent.Path.Child(i), Args: args}
		if got := parent.Forked(i, 3, args); got != want {
			t.Errorf("Forked(%d) = %+v, want %+v", i, got, want)
		}
	}
	if k, ok := parent.Child(3, 10, args).WithHint(NoHint).HintKey(); ok {
		t.Errorf("WithHint(NoHint) set hint key %d", k)
	}
	for n := 0; n <= 3; n++ {
		in := []uint64{1, 2, 3}[:n]
		var want [3]uint64
		copy(want[:], in)
		if got := ArgWords(in); got != want {
			t.Errorf("ArgWords(%v) = %v", in, got)
		}
	}
	v = panicValue(func() { ArgWords([]uint64{1, 2, 3, 4}) })
	if s, ok := v.(string); !ok || !strings.Contains(s, "at most 3 argument words") {
		t.Errorf("ArgWords with 4 words panicked with %v", v)
	}
}

// TestCoTaskEnvChildren: the simulator's task environment posts exactly
// the descriptors the shared rules build, fork indices counting up per
// body run and hints attached only when given.
func TestCoTaskEnvChildren(t *testing.T) {
	parent := TaskDesc{TS: 10, Path: tsdom.Root.Child(1)}
	co := StartTask(func(e TaskEnv) {
		e.Enqueue(1, 12, 5)
		e.EnqueueArgs(1, 10, [3]uint64{6})
		e.EnqueueHinted(2, 13, 44, [3]uint64{7})
		e.Fork(3, 8)
		e.EnqueueSub(3, 45, [3]uint64{9})
		e.EnqueueSub(3, NoHint, [3]uint64{10})
	}, parent)
	want := []TaskDesc{
		parent.Child(1, 12, [3]uint64{5}),
		parent.Child(1, 10, [3]uint64{6}),
		parent.Child(2, 13, [3]uint64{7}).WithHint(44),
		parent.Forked(0, 3, [3]uint64{8}),
		parent.Forked(1, 3, [3]uint64{9}).WithHint(45),
		parent.Forked(2, 3, [3]uint64{10}),
	}
	ops := drive(co, func(Op) Result { return Result{} })
	if len(ops) != len(want)+1 {
		t.Fatalf("ops = %+v", ops)
	}
	for i, w := range want {
		if ops[i].Kind != OpEnqueue || ops[i].Task != w {
			t.Errorf("op %d = %+v, want enqueue of %+v", i, ops[i], w)
		}
	}
}

func TestThreadProtocol(t *testing.T) {
	co := StartThread(func(e ThreadEnv) {
		if e.ID() != 2 || e.Threads() != 8 {
			t.Error("thread identity wrong")
		}
		if !e.CAS(0x10, 0, 1) {
			t.Error("CAS result not delivered")
		}
		if e.FetchAdd(0x18, 5) != 40 {
			t.Error("FetchAdd result not delivered")
		}
	}, 2, 8)
	ops := drive(co, func(op Op) Result {
		switch op.Kind {
		case OpCAS:
			return Result{OK: true}
		case OpFetchAdd:
			return Result{Val: 40}
		}
		return Result{}
	})
	if ops[0].Kind != OpCAS || ops[0].Old != 0 || ops[0].Val != 1 {
		t.Fatalf("CAS op = %+v", ops[0])
	}
	if ops[1].Kind != OpFetchAdd || ops[1].Val != 5 {
		t.Fatalf("FetchAdd op = %+v", ops[1])
	}
}

func TestResumeAfterDonePanics(t *testing.T) {
	co := StartTask(func(e TaskEnv) {}, TaskDesc{})
	drive(co, func(Op) Result { return Result{} })
	defer func() {
		if recover() == nil {
			t.Fatal("Resume after Done did not panic")
		}
	}()
	co.Resume(Result{})
}

func TestManyCoroutinesInterleaved(t *testing.T) {
	// Round-robin 100 guests, one op at a time: exercises the rendezvous
	// protocol under interleaving.
	const n = 100
	cos := make([]*Coroutine, n)
	sums := make([]uint64, n)
	for i := range cos {
		i := i
		cos[i] = StartTask(func(e TaskEnv) {
			var s uint64
			for j := 0; j < 10; j++ {
				s += e.Load(uint64(j * 8))
			}
			sums[i] = s
		}, TaskDesc{})
	}
	pending := make([]Result, n)
	live := n
	started := make([]bool, n)
	for live > 0 {
		for i, co := range cos {
			if co == nil {
				continue
			}
			var op *Op
			if !started[i] {
				op = co.Resume(Result{})
				started[i] = true
			} else {
				op = co.Resume(pending[i])
			}
			if op.Kind == OpDone {
				cos[i] = nil
				live--
				continue
			}
			pending[i] = Result{Val: op.Addr / 8}
		}
	}
	for i, s := range sums {
		if s != 45 {
			t.Fatalf("guest %d sum = %d, want 45", i, s)
		}
	}
}
