package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
)

// The engine workloads run apps back to back through the public run path,
// SwarmApp.Backend → RunPhase → Verify, one pass (every app once) after
// another on the benchmark's goroutine. Every run builds a fresh machine,
// so the simulator's modelled caches start empty.

var (
	simApps = []string{"sssp", "kcore", "msf"}
	rtApps  = []string{"sssp", "silo", "kcore", "msort", "treebuild"}
)

// engineInputs builds each app's medium-scale input (the sizes the
// registry's medium scale uses) from the workload seed. msort and
// treebuild take no seed; their inputs are fixed.
var engineInputs = map[string]func(seed int64) bench.Benchmark{
	"sssp":      func(s int64) bench.Benchmark { return bench.NewSSSP(80, 80, s) },
	"kcore":     func(s int64) bench.Benchmark { return bench.NewKCore(11, 16, s) },
	"msf":       func(s int64) bench.Benchmark { return bench.NewMSF(10, 24, s) },
	"silo":      func(s int64) bench.Benchmark { return bench.NewSilo(4, 800, s) },
	"msort":     func(int64) bench.Benchmark { return bench.NewMSort(1024, 16) },
	"treebuild": func(int64) bench.Benchmark { return bench.NewTreeBuild(1024, 4) },
}

// engineCores is the simulated (sim) or logical (rt) core count.
const engineCores = 64

// simCountDefs are the simulator's per-pass statistics. They are a pure
// function of the inputs, so they repeat exactly for a seed.
var simCountDefs = []metricDef{
	{"sim.cycles", "cycles"},
	{"sim.events", "count"},
	{"core.commits", "count"},
	{"core.aborts", "count"},
	{"core.useful_ratio", "ratio"},
	{"core.spilled_tasks", "count"},
	{"core.nacks", "count"},
	{"core.gvt_updates", "count"},
	{"bloom.checks", "count"},
	{"vt.compares", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.mem_accesses", "count"},
	{"noc.bytes", "bytes"},
	{"core.aborted_cycles", "cycles"},
	{"core.stall_cycles", "cycles"},
}

type engineApp struct {
	name string
	app  bench.SwarmApp
}

type engine struct {
	backend string // "sim" or "rt"
	seed    int64
	apps    []engineApp
	// digests holds each app's simulated-statistics digest from its first
	// run; every later run of the app must match it.
	digests map[string]string
}

func setupEngine(backend string, names []string) func(int64) (instance, time.Duration, error) {
	return func(seed int64) (instance, time.Duration, error) {
		t0 := time.Now()
		e := &engine{backend: backend, seed: seed, digests: map[string]string{}}
		for _, n := range names {
			e.apps = append(e.apps, engineApp{n, engineInputs[n](seed).SwarmApp()})
		}
		return e, time.Since(t0), nil
	}
}

func (e *engine) close() {}

func (e *engine) measure(d time.Duration, tr *tracer) *tally {
	t := newTally()
	var c counts
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < d {
		var work uint64
		p0 := time.Now()
		for _, a := range e.apps {
			if st, ok := e.runOp(a, tr, t); ok {
				c.add(st)
				work += e.work(st)
			}
		}
		t.rates = append(t.rates, float64(work)/time.Since(p0).Seconds())
		passes++
	}
	t.wall = time.Since(start)
	if tr != nil {
		e.layers(t, tr, c, passes)
	}
	return t
}

// work is a run's work: simulated events under the simulator,
// committed tasks under the native runtime.
func (e *engine) work(st core.Stats) uint64 {
	if e.backend == "sim" {
		return st.Events
	}
	return st.Commits
}

// runOp runs one app once and checks its output.
func (e *engine) runOp(a engineApp, tr *tracer, t *tally) (core.Stats, bool) {
	t.attempted++
	op := tr.begin(0, 0, "op", a.name)
	t0 := time.Now()
	st, err := e.run(a, tr, op)
	lat := time.Since(t0)
	op.end()
	if err != nil {
		t.fail("%s %s seed %d: %v", e.backend, a.name, e.seed, err)
		return st, false
	}
	t.lat[a.name] = append(t.lat[a.name], float64(lat)/1e6)
	if e.backend == "sim" {
		got, err := digest(st)
		if err != nil {
			t.fail("digest %s: %v", a.name, err)
			return st, false
		}
		first, seen := e.digests[a.name]
		if !seen {
			e.digests[a.name] = got
			fmt.Printf("digest sim %s seed %d %s\n", a.name, e.seed, got)
		} else if got != first {
			t.fail("sim %s seed %d: statistics digest %s differs from the first run's %s", a.name, e.seed, got, first)
			return st, false
		}
	}
	return st, true
}

func (e *engine) run(a engineApp, tr *tracer, op openSpan) (core.Stats, error) {
	cfg := core.DefaultConfig(engineCores)
	cfg.Backend = e.backend
	cfg.Seed = e.seed

	sp := tr.begin(op.op(), op.id(), "backend.new", a.name)
	bk, err := a.app.Backend(cfg)
	sp.end()
	if err != nil {
		return core.Stats{}, fmt.Errorf("backend: %w", err)
	}
	sp = tr.begin(op.op(), op.id(), e.backend+".run", a.name)
	ph, err := bk.RunPhase()
	sp.end()
	if err != nil {
		return core.Stats{}, fmt.Errorf("run: %w", err)
	}
	sp = tr.begin(op.op(), op.id(), "bench.verify", a.name)
	err = a.app.Verify(bk.Mem().Load)
	sp.end()
	if err != nil {
		return core.Stats{}, fmt.Errorf("verify: %w", err)
	}
	return ph.Cumulative, nil
}

// digest hashes every simulated statistic of a run.
func digest(st core.Stats) (string, error) {
	data, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8]), nil
}

// counts are the run statistics the per-layer metrics use, summed over
// the runs of a window.
type counts struct {
	cycles, events, commits, aborts, retries  uint64
	spilled, nacks, gvtUpdates, bloomChecks   uint64
	vtCompares, accesses, l1Hits, memAccesses uint64
	nocBytes, abortedCycles, stallCycles      uint64
}

func (c *counts) add(st core.Stats) {
	c.cycles += st.Cycles
	c.events += st.Events
	c.commits += st.Commits
	c.aborts += st.Aborts
	c.retries += st.Retries
	c.spilled += st.SpilledTasks
	c.nacks += st.NACKs
	c.gvtUpdates += st.GVTUpdates
	c.bloomChecks += st.BloomChecks
	c.vtCompares += st.VTCompares
	c.accesses += st.Cache.Loads + st.Cache.Stores
	c.l1Hits += st.Cache.L1Hits
	c.memAccesses += st.Cache.MemAccesses
	c.nocBytes += st.TotalTrafficBytes()
	c.abortedCycles += st.AbortedCycles
	c.stallCycles += st.StallCycles
}

// layers fills a traced window's per-layer values from its spans and
// per-pass counts.
func (e *engine) layers(t *tally, tr *tracer, c counts, passes int) {
	v := t.layer
	v["backend.new_ms"] = median(tr.durations("backend.new", ""))
	v["bench.verify_ms"] = median(tr.durations("bench.verify", ""))
	for _, a := range e.apps {
		v[e.backend+".run_ms."+a.name] = median(tr.durations(e.backend+".run", a.name))
	}
	per := func(x uint64) float64 { return float64(x) / float64(passes) }
	useful := func(commits, aborts uint64) float64 {
		return float64(commits) / float64(max(commits+aborts, 1))
	}
	if e.backend == "rt" {
		v["rt.commits"] = per(c.commits)
		v["rt.aborts"] = per(c.aborts)
		v["rt.retries"] = per(c.retries)
		v["rt.useful_ratio"] = useful(c.commits, c.aborts)
		return
	}
	if c.events > 0 {
		v["sim.ns_per_event"] = sum(tr.durations("sim.run", "")) * 1e6 / float64(c.events)
	}
	v["sim.cycles"] = per(c.cycles)
	v["sim.events"] = per(c.events)
	v["core.commits"] = per(c.commits)
	v["core.aborts"] = per(c.aborts)
	v["core.useful_ratio"] = useful(c.commits, c.aborts)
	v["core.spilled_tasks"] = per(c.spilled)
	v["core.nacks"] = per(c.nacks)
	v["core.gvt_updates"] = per(c.gvtUpdates)
	v["bloom.checks"] = per(c.bloomChecks)
	v["vt.compares"] = per(c.vtCompares)
	if c.accesses > 0 {
		v["cache.l1_hit_ratio"] = float64(c.l1Hits) / float64(c.accesses)
	}
	v["cache.mem_accesses"] = per(c.memAccesses)
	v["noc.bytes"] = per(c.nocBytes)
	v["core.aborted_cycles"] = per(c.abortedCycles)
	v["core.stall_cycles"] = per(c.stallCycles)
}
