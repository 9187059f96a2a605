package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool fans independent simulations out over host goroutines. Every
// simulation is a pure function of its inputs — the sim engine is strictly
// sequential and seeded — so running sweep points concurrently and
// collecting results by index (never by completion order) yields output
// byte-identical to a sequential sweep.
type Pool struct {
	workers  int
	progress ProgressFunc
}

// ProgressFunc observes scheduler progress: done of total tasks have
// finished, label names the task that just completed, and eta estimates
// the remaining wall-clock time from the average task duration so far.
// Calls are serialized within one Run — from worker goroutines under an
// internal lock on the concurrent path, or from the caller's goroutine
// on the sequential path — but carry no ordering guarantee across
// concurrent Run invocations. It must be fast and must not call back
// into the pool.
type ProgressFunc func(done, total int, label string, eta time.Duration)

// NewPool returns a scheduler running up to workers simulations
// concurrently. workers <= 0 selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.SetWorkers(workers)
	return p
}

// SetWorkers changes the concurrency limit. n <= 0 selects
// runtime.NumCPU(); n == 1 runs strictly sequentially on the caller's
// goroutine.
func (p *Pool) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	p.workers = n
}

// Workers returns the concurrency limit.
func (p *Pool) Workers() int { return p.workers }

// SetProgress installs a progress observer (nil disables reporting).
func (p *Pool) SetProgress(fn ProgressFunc) { p.progress = fn }

// Run executes fn(0) … fn(n-1) with at most p.workers running at once and
// waits for all of them. fn(i) must deposit its result in slot i of a
// caller-owned slice; Run itself never communicates results, so
// completion order cannot leak into them.
//
// The returned error is the lowest-index error. All n tasks run even if
// one fails (failures are rare — verification errors — and finishing the
// batch keeps the reported error independent of completion order); only
// the strictly sequential workers==1 path stops at the first failure,
// where determinism is free. label may be nil.
func (p *Pool) Run(n int, label func(int) string, fn func(int) error) error {
	if p.workers <= 0 {
		// A zero-value Pool{} (NewPool and SetWorkers both map n <= 0 to
		// NumCPU) would otherwise spawn zero workers and return nil having
		// silently run nothing.
		return fmt.Errorf("harness: pool has %d workers (use NewPool or SetWorkers before Run)", p.workers)
	}
	if n <= 0 {
		return nil
	}
	name := func(i int) string {
		if label == nil {
			return ""
		}
		return label(i)
	}
	start := time.Now()
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
			p.report(i+1, n, name(i), start)
		}
		return nil
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
		errs = make([]error, n)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := fn(i)
				mu.Lock()
				errs[i] = err
				done++
				p.report(done, n, name(i), start)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// report invokes the progress observer with an ETA extrapolated from the
// mean task duration so far.
func (p *Pool) report(done, total int, label string, start time.Time) {
	if p.progress == nil {
		return
	}
	var eta time.Duration
	if done > 0 && done < total {
		eta = time.Since(start) / time.Duration(done) * time.Duration(total-done)
	}
	p.progress(done, total, label, eta)
}

// Memo is a deduplicating, concurrency-safe cache: the first caller for a
// key computes the value while later callers for the same key block on it
// and share the result, so two workers never redundantly simulate the
// same sweep point and a daemon never runs identical submissions twice.
//
// Errors are not cached. A failed computation is handed to every caller
// that joined it in flight (singleflight semantics), but the entry is
// evicted before those callers wake, so the next Do for the key
// recomputes. Caching the error instead would poison the key forever —
// tolerable in a one-shot sweep that aborts anyway, fatal in a
// long-running service where one transient failure would be replayed to
// every future client of that configuration.
//
// A panicking computation is treated like a failed one: its entry is
// evicted, callers that joined it get an error naming the panic, and the
// panic itself continues into the caller that ran fn.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{} // closed once val/err are set
	val  V
	err  error
}

// Do returns the value for key, computing it with fn at most once per
// non-erroring attempt. hit reports whether this caller shared another
// caller's computation (cached or joined in flight) instead of running fn.
func (c *Memo[K, V]) Do(key K, fn func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.val, true, e.err
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	returned := false
	defer func() {
		var p any
		if !returned {
			p = recover()
			e.err = fmt.Errorf("harness: memoized computation panicked: %v", p)
		}
		if e.err != nil {
			c.mu.Lock()
			// Evict before waking waiters so no later Do can observe the
			// failed entry; guard against the (impossible today) case of
			// the slot having been replaced.
			if c.m[key] == e {
				delete(c.m, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
		if p != nil {
			panic(p)
		}
	}()
	e.val, e.err = fn()
	returned = true
	return e.val, false, e.err
}

// Runner errors.
var (
	// ErrQueueFull is returned by Submit when the pending-job queue is at
	// capacity; callers should shed load (a daemon answers 503).
	ErrQueueFull = errors.New("harness: job queue full")
	// ErrDraining is returned by Submit after Drain has begun.
	ErrDraining = errors.New("harness: runner is draining")
)

// Runner is the pool's long-lived service mode: where Run executes one
// fixed batch, a Runner accepts jobs indefinitely — the execution engine
// of a simulation daemon. Jobs queue in a bounded channel (admission
// control happens at Submit, not by blocking HTTP handlers) and run on
// the pool's worker count. Shutdown is graceful by construction: Drain
// stops admission and waits until every accepted job — queued or in
// flight — has finished.
type Runner struct {
	jobs     chan runnerJob
	wg       sync.WaitGroup
	inFlight atomic.Int64

	mu       sync.Mutex
	draining bool
}

type runnerJob struct {
	ctx context.Context
	fn  func(context.Context)
}

// Serve starts p.Workers() worker goroutines consuming a queue of at most
// queueDepth pending jobs and returns the Runner accepting them.
func (p *Pool) Serve(queueDepth int) *Runner {
	if queueDepth < 0 {
		queueDepth = 0
	}
	r := &Runner{jobs: make(chan runnerJob, queueDepth)}
	workers := p.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	for w := 0; w < workers; w++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for j := range r.jobs {
				r.inFlight.Add(1)
				j.fn(j.ctx)
				r.inFlight.Add(-1)
			}
		}()
	}
	return r
}

// Submit enqueues fn for execution. fn receives ctx and is responsible
// for honoring its cancellation (a cancelled-before-start job should
// check ctx and bail). Submit never blocks: it fails fast with
// ErrQueueFull or ErrDraining so callers control their own backpressure.
func (r *Runner) Submit(ctx context.Context, fn func(context.Context)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return ErrDraining
	}
	select {
	case r.jobs <- runnerJob{ctx: ctx, fn: fn}:
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueDepth returns the number of accepted jobs not yet started.
func (r *Runner) QueueDepth() int { return len(r.jobs) }

// InFlight returns the number of jobs currently executing.
func (r *Runner) InFlight() int { return int(r.inFlight.Load()) }

// Drain stops admission and waits for every accepted job to finish, or
// for ctx to expire (in-flight simulations keep their goroutines in that
// case; the process is expected to exit). Drain is idempotent.
func (r *Runner) Drain(ctx context.Context) error {
	r.mu.Lock()
	if !r.draining {
		r.draining = true
		close(r.jobs)
	}
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
