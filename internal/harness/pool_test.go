package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoEvictsErrors is the regression test for the daemon-blocking bug:
// a failed computation must not be cached. Fail once, then succeed on
// retry — before the fix the first error was returned to every future
// caller of the key.
func TestMemoEvictsErrors(t *testing.T) {
	var c Memo[string, int]
	calls := 0
	fn := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient")
		}
		return 42, nil
	}

	if _, hit, err := c.Do("k", fn); err == nil || hit {
		t.Fatalf("first Do: got hit=%v err=%v, want a miss returning the transient error", hit, err)
	}
	v, hit, err := c.Do("k", fn)
	if err != nil || v != 42 || hit {
		t.Fatalf("retry Do: got (%d, hit=%v, %v), want a fresh successful computation (42, false, nil)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (fail, then recompute)", calls)
	}
	// The success is now cached: no third computation.
	v, hit, err = c.Do("k", fn)
	if err != nil || v != 42 || !hit {
		t.Fatalf("cached Do: got (%d, hit=%v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times after cached hit, want still 2", calls)
	}
}

// TestMemoSingleflight proves the success-path dedup guarantee under
// concurrency: many callers, exactly one computation, everyone shares the
// value, and all but the computing caller observe a hit.
func TestMemoSingleflight(t *testing.T) {
	var c Memo[int, string]
	var computations, hits atomic.Int64
	const callers = 32

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, hit, err := c.Do(7, func() (string, error) {
				computations.Add(1)
				time.Sleep(time.Millisecond) // widen the in-flight window
				return "value", nil
			})
			if err != nil || v != "value" {
				t.Errorf("Do: got (%q, %v)", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Fatalf("fn ran %d times across %d concurrent callers, want exactly 1", n, callers)
	}
	if h := hits.Load(); h != callers-1 {
		t.Fatalf("%d of %d callers observed a hit, want %d", h, callers, callers-1)
	}
}

// TestMemoSharedErrorThenRecompute: callers that joined a failing
// computation in flight all receive its error (singleflight), but the key
// is clean for the next caller.
func TestMemoSharedErrorThenRecompute(t *testing.T) {
	var c Memo[string, int]
	var computations atomic.Int64
	gate := make(chan struct{})
	boom := errors.New("boom")

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, errs[g] = c.Do("k", func() (int, error) {
				computations.Add(1)
				<-gate // hold every joiner in flight
				return 0, boom
			})
		}(g)
	}
	// Let the goroutines pile up on the entry, then release the failure.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Fatalf("failing fn ran %d times, want 1 (joiners share the in-flight error)", n)
	}
	for g, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want the shared in-flight error", g, err)
		}
	}
	v, hit, err := c.Do("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 || hit {
		t.Fatalf("post-error Do: got (%d, hit=%v, %v), want a fresh (9, false, nil)", v, hit, err)
	}
}

// TestMemoPanicReleasesJoiners: a panicking fn must not wedge the key.
// The joiner in flight gets an error naming the panic instead of blocking
// forever, the panic still reaches the caller that ran fn, and the next
// Do recomputes.
func TestMemoPanicReleasesJoiners(t *testing.T) {
	var c Memo[string, int]
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (int, error) {
			return 0, errors.New("joiner ran fn instead of joining the in-flight computation")
		})
		joined <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the joiner block on the entry
	close(release)

	select {
	case err := <-joined:
		if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Fatalf("joiner: err = %v, want an error naming the panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner still blocked 5s after fn panicked")
	}
	if p := <-recovered; p != "boom" {
		t.Fatalf("computing caller recovered %v, want the original panic %q", p, "boom")
	}
	v, hit, err := c.Do("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 || hit {
		t.Fatalf("post-panic Do: got (%d, hit=%v, %v), want a fresh (5, false, nil)", v, hit, err)
	}
}

// TestRunnerServesAndDrains exercises the daemon execution path: jobs
// submitted over time run on bounded workers, and Drain completes every
// accepted job before returning.
func TestRunnerServesAndDrains(t *testing.T) {
	r := NewPool(4).Serve(16)
	var ran atomic.Int64
	const jobs = 24
	for i := 0; i < jobs; i++ {
		for {
			err := r.Submit(context.Background(), func(context.Context) {
				time.Sleep(time.Millisecond)
				ran.Add(1)
			})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("Submit: %v", err)
			}
			time.Sleep(time.Millisecond) // bounded queue: back off and retry
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := ran.Load(); n != jobs {
		t.Fatalf("drained runner completed %d of %d accepted jobs", n, jobs)
	}
	if err := r.Submit(context.Background(), func(context.Context) {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain: err = %v, want ErrDraining", err)
	}
	if r.InFlight() != 0 || r.QueueDepth() != 0 {
		t.Fatalf("after Drain: inflight=%d queue=%d, want 0/0", r.InFlight(), r.QueueDepth())
	}
}

// TestRunnerQueueFull: admission control fails fast instead of blocking.
func TestRunnerQueueFull(t *testing.T) {
	r := NewPool(1).Serve(1)
	block := make(chan struct{})
	// Occupy the single worker, then fill the single queue slot.
	if err := r.Submit(context.Background(), func(context.Context) { <-block }); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	// The first job may still be queued; keep feeding until both the
	// worker and the slot are occupied, then expect ErrQueueFull.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := r.Submit(context.Background(), func(context.Context) { <-block })
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestRunnerDrainTimeout: a Drain bounded by a context reports expiry
// instead of hanging on a stuck job.
func TestRunnerDrainTimeout(t *testing.T) {
	r := NewPool(1).Serve(1)
	release := make(chan struct{})
	defer close(release)
	if err := r.Submit(context.Background(), func(context.Context) { <-release }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for the job to start so Drain has something in flight.
	for r.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck job: err = %v, want deadline exceeded", err)
	}
}

// TestMemoDistinctKeys: different keys never share computations.
func TestMemoDistinctKeys(t *testing.T) {
	var c Memo[int, int]
	for k := 0; k < 4; k++ {
		v, hit, err := c.Do(k, func() (int, error) { return k * k, nil })
		if err != nil || hit || v != k*k {
			t.Fatalf("Do(%d): got (%d, hit=%v, %v)", k, v, hit, err)
		}
	}
}
