package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/serve"
)

// The swarmd workload runs the daemon in process — serve.New with its
// default worker count behind a loopback listener — and drives it only
// over HTTP. A closed loop of nproc clients, one goroutine and one
// connection each, keeps jobWindow jobs outstanding per client, so the
// daemon's queue always has work. Each job is submitted, polled until it
// finishes, and its CSV fetched.
//
// No swarmd traffic has been recorded, so the mix below is an assumption:
// the window, the share of repeated specs and the apps are chosen, not
// measured. It lies between the all-distinct and all-reuse scenarios of
// the swarmload record in EXPERIMENTS.md. Every window prints the cache
// hit share it got.

const (
	jobWindow = 2                    // jobs each client keeps outstanding
	pollEvery = 5 * time.Millisecond // status poll interval
	hotEvery  = 4                    // every hotEvery-th job repeats a hot spec
	hotSpecs  = 4                    // distinct hot specs, so repeats hit the result cache
	jobScale  = "small"
)

// jobApps are short, low-conflict sim jobs (about 0.1 s each on one core).
var jobApps = []string{"silo", "sssp"}

var swarmdDefs = []metricDef{
	{"serve.submit_ms", "ms"},
	{"serve.poll_ms", "ms"},
	{"serve.csv_ms", "ms"},
	{"serve.polls_per_job", "count"},
	{"serve.compute_ms", "ms"},
	{"harness.queue_ms", "ms"},
	{"harness.memo_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.beyond_p95", "count"},
}

type daemon struct {
	seed   int64
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed once hs.Serve has returned
	next   atomic.Int64  // index of the next job to submit
}

// specCSVs holds the first CSV the process fetched for each job spec.
// Every set-up starts a new daemon whose cache-fill jobs compute the same
// specs afresh, so their CSVs are checked against an earlier daemon's
// computation. Within one daemon a repeated spec is a cache hit, checked
// against the CSV of the computation it reuses.
var specCSVs = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

func setupDaemon(seed int64) (instance, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		seed:   seed,
		srv:    serve.New(serve.Config{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()

	// Fill the daemon's benchmark cache (inputs and host references) with
	// one job per app, run to completion.
	t0 := time.Now()
	jt := &jobTally{t: newTally()}
	c := newClient(d, nil, jt)
	for i, app := range jobApps {
		c.submit(serve.JobSpec{App: app, Scale: jobScale, Seed: seed*1_000_000 + 10 + int64(i)})
	}
	for len(c.out) > 0 {
		c.pollAll()
	}
	c.close()
	if jt.t.failed > 0 {
		d.close()
		return nil, 0, fmt.Errorf("cache fill: %v", jt.t.problems)
	}
	return d, time.Since(t0), nil
}

func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.srv.Shutdown(ctx)
}

// spec returns job i's specification: mostly distinct seeds, so the
// daemon computes them, and every hotEvery-th a repeat of a hot spec.
func (d *daemon) spec(i int64) serve.JobSpec {
	base := d.seed * 1_000_000
	app := jobApps[(i/hotEvery+i%hotEvery)%int64(len(jobApps))]
	if i%hotEvery == hotEvery-1 {
		k := (i / hotEvery) % hotSpecs
		return serve.JobSpec{App: jobApps[k%int64(len(jobApps))], Scale: jobScale, Seed: base + 100 + k}
	}
	return serve.JobSpec{App: app, Scale: jobScale, Seed: base + 1000 + i}
}

func (d *daemon) measure(dur time.Duration, tr *tracer) *tally {
	jt := &jobTally{t: newTally()}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(d, tr, jt)
			defer c.close()
			for {
				for len(c.out) < jobWindow && time.Now().Before(deadline) {
					c.submit(d.spec(d.next.Add(1) - 1))
				}
				if len(c.out) == 0 {
					return
				}
				c.pollAll()
			}
		}()
	}
	wg.Wait()
	t := jt.t
	t.wall = time.Since(start)
	// A closed loop has no passes: the window is one.
	t.rates = []float64{float64(jt.done) / t.wall.Seconds()}
	fmt.Printf("window %d jobs done, %d cache hits, hit share %.3f\n",
		jt.done, jt.hits, float64(jt.hits)/float64(max(jt.done, 1)))
	if tr != nil {
		v := t.layer
		v["serve.submit_ms"] = median(tr.durations("http.submit", ""))
		v["serve.poll_ms"] = median(tr.durations("http.poll", ""))
		v["serve.csv_ms"] = median(tr.durations("http.csv", ""))
		finished := float64(max(jt.done, 1))
		v["serve.polls_per_job"] = float64(jt.polls) / finished
		v["harness.memo_hit_ratio"] = float64(jt.hits) / finished
		v["serve.compute_ms"] = median(jt.compute)
		v["harness.queue_ms"] = median(jt.queue)
		v["serve.rejected"] = float64(jt.rejected)
		v["serve.hit_p50_ms"] = median(jt.hitLat)
		p95 := quantile(t.lat["job"], 0.95)
		for _, l := range t.lat["job"] {
			if l > p95 {
				v["serve.beyond_p95"]++
			}
		}
	}
	return t
}

// jobTally collects the jobs of a window from every client. t.lat["job"]
// holds the submit-to-done latency of computed jobs; cache hits go to
// hitLat.
type jobTally struct {
	mu              sync.Mutex
	t               *tally
	hitLat          []float64
	compute, queue  []float64 // server-side run time and queue wait of computed jobs, ms
	done, hits      int
	polls, rejected int
}

type client struct {
	d   *daemon
	tr  *tracer
	jt  *jobTally
	tp  *http.Transport
	hc  *http.Client
	out []*job
}

// job is one outstanding submission.
type job struct {
	spec     serve.JobSpec
	id       string
	op       openSpan
	start    time.Time
	submitMs float64
	polls    int
}

// jobStatus is the part of the daemon's job JSON the client reads.
type jobStatus struct {
	ID        string      `json:"id"`
	State     string      `json:"state"`
	Error     string      `json:"error"`
	CacheHit  bool        `json:"cache_hit"`
	ElapsedMS int64       `json:"elapsed_ms"`
	Stats     *core.Stats `json:"stats"`
}

func newClient(d *daemon, tr *tracer, jt *jobTally) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	return &client{d: d, tr: tr, jt: jt, tp: tp, hc: &http.Client{Transport: tp, Timeout: time.Minute}}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

func (c *client) fail(j *job, format string, args ...any) {
	j.op.end()
	c.jt.mu.Lock()
	defer c.jt.mu.Unlock()
	c.jt.t.fail("job %s/%d: %s", j.spec.App, j.spec.Seed, fmt.Sprintf(format, args...))
}

// do makes one request and returns its status, body and duration in ms.
func (c *client) do(j *job, name, method, path string, body []byte) (int, []byte, float64, error) {
	sp := c.tr.begin(j.op.op(), j.op.id(), name, j.spec.App)
	defer sp.end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, c.d.url+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, float64(time.Since(t0)) / 1e6, err
}

// submit posts a job, retrying while the daemon answers 503, and adds it
// to the client's outstanding jobs.
func (c *client) submit(spec serve.JobSpec) {
	j := &job{spec: spec, op: c.tr.begin(0, 0, "op", spec.App), start: time.Now()}
	c.jt.mu.Lock()
	c.jt.t.attempted++
	c.jt.mu.Unlock()
	body, err := json.Marshal(spec)
	if err != nil {
		c.fail(j, "encode spec: %v", err)
		return
	}
	for {
		code, data, ms, err := c.do(j, "http.submit", http.MethodPost, "/jobs", body)
		if err != nil {
			c.fail(j, "submit: %v", err)
			return
		}
		if code == http.StatusServiceUnavailable {
			c.jt.mu.Lock()
			c.jt.rejected++
			c.jt.mu.Unlock()
			time.Sleep(pollEvery)
			continue
		}
		var st jobStatus
		if code != http.StatusAccepted || json.Unmarshal(data, &st) != nil || st.ID == "" {
			c.fail(j, "submit: status %d: %s", code, bytes.TrimSpace(data))
			return
		}
		j.id, j.submitMs = st.ID, ms
		c.out = append(c.out, j)
		return
	}
}

// pollAll waits one poll interval, then polls every outstanding job and
// finishes those that are done.
func (c *client) pollAll() {
	time.Sleep(pollEvery)
	keep := c.out[:0]
	for _, j := range c.out {
		j.polls++
		code, data, ms, err := c.do(j, "http.poll", http.MethodGet, "/jobs/"+j.id, nil)
		var st jobStatus
		switch {
		case err != nil:
			c.fail(j, "poll: %v", err)
		case code != http.StatusOK || json.Unmarshal(data, &st) != nil:
			c.fail(j, "poll: status %d: %s", code, bytes.TrimSpace(data))
		case st.State == serve.JobFailed:
			c.fail(j, "job failed: %s", st.Error)
		case st.State == serve.JobDone:
			c.finish(j, st, ms)
		default:
			keep = append(keep, j)
		}
	}
	c.out = keep
}

// finish checks a done job — its stats, and a CSV that parses, agrees
// with the stats and matches specCSVs — and records it.
func (c *client) finish(j *job, st jobStatus, lastPollMs float64) {
	lat := float64(time.Since(j.start)) / 1e6
	code, data, _, err := c.do(j, "http.csv", http.MethodGet, "/jobs/"+j.id+"/csv", nil)
	if err != nil || code != http.StatusOK {
		c.fail(j, "csv: status %d: %v", code, err)
		return
	}
	if err := checkCSV(data, j.spec.App, st.Stats); err != nil {
		c.fail(j, "csv: %v", err)
		return
	}
	key := fmt.Sprintf("%s/%d", j.spec.App, j.spec.Seed)
	specCSVs.Lock()
	first, seen := specCSVs.m[key]
	if !seen {
		specCSVs.m[key] = string(data)
	}
	specCSVs.Unlock()
	if seen && first != string(data) {
		c.fail(j, "csv differs from an earlier job of the same spec")
		return
	}
	j.op.end()

	jt := c.jt
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.done++
	jt.polls += j.polls
	if st.CacheHit {
		jt.hits++
		jt.hitLat = append(jt.hitLat, lat)
		return
	}
	jt.t.lat["job"] = append(jt.t.lat["job"], lat)
	jt.compute = append(jt.compute, float64(st.ElapsedMS))
	jt.queue = append(jt.queue, max(lat-float64(st.ElapsedMS)-j.submitMs-lastPollMs, 0))
}

// checkCSV checks a job's CSV: a header and one row of equal width, for
// the job's app, whose cycle and commit columns match the job's stats.
func checkCSV(data []byte, app string, st *core.Stats) error {
	if st == nil || st.Commits == 0 || st.Cycles == 0 {
		return fmt.Errorf("job reports no simulated work")
	}
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return err
	}
	if len(recs) != 2 {
		return fmt.Errorf("%d records, want a header and one row", len(recs))
	}
	col := map[string]string{}
	for i, name := range recs[0] {
		col[name] = recs[1][i]
	}
	if col["app"] != app {
		return fmt.Errorf("app %q, want %q", col["app"], app)
	}
	for name, want := range map[string]uint64{"cycles": st.Cycles, "commits": st.Commits} {
		got, err := strconv.ParseUint(col[name], 10, 64)
		if err != nil || got != want {
			return fmt.Errorf("%s column %q, want %d", name, col[name], want)
		}
	}
	return nil
}
