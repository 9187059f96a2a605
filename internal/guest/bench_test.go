package guest

import "testing"

// BenchmarkRendezvous measures the per-operation cost of the coroutine
// transport — the simulator's fundamental overhead per guest memory access.
func BenchmarkRendezvous(b *testing.B) {
	co := StartTask(func(e TaskEnv) {
		for {
			if e.Load(0) == 1 {
				return
			}
		}
	}, TaskDesc{})
	b.ResetTimer()
	op := co.Resume(Result{})
	for i := 0; i < b.N; i++ {
		if op.Kind != OpLoad {
			b.Fatal("unexpected op")
		}
		op = co.Resume(Result{Val: 0})
	}
	b.StopTimer()
	co.Resume(Result{Val: 1}) // let the guest exit
}

// BenchmarkPostedOps measures the per-operation cost of result-free ops
// (stores), which the guest posts without switching: one coroutine round
// trip is shared by postLimit ops.
func BenchmarkPostedOps(b *testing.B) {
	stop := false
	co := StartTask(func(e TaskEnv) {
		for !stop {
			e.Store(0, 1)
		}
	}, TaskDesc{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op := co.Resume(Result{}); op.Kind != OpStore {
			b.Fatal("unexpected op")
		}
	}
	b.StopTimer()
	stop = true
	for co.Resume(Result{}).Kind != OpDone { // drain, let the guest exit
	}
}

// BenchmarkStartTask measures task-launch overhead (goroutine spawn +
// first rendezvous), paid once per task execution.
func BenchmarkStartTask(b *testing.B) {
	fn := func(e TaskEnv) {}
	for i := 0; i < b.N; i++ {
		co := StartTask(fn, TaskDesc{})
		if op := co.Resume(Result{}); op.Kind != OpDone {
			b.Fatal("unexpected op")
		}
	}
}
