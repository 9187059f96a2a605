// Command perfbench is the repository's benchmark. It drives one
// workload — the cycle-level simulator (sim), the native speculative
// runtime (rt) or the swarmd daemon (swarmd) — only through the
// program's public entry points, checks every output, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 63, "failed": 0, "metrics": {"work_per_s": {"value": 812345.6, "unit": "1/s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run measures half its time untraced, then its full time traced, and
// reports the
// per-layer metrics: span timings, a CPU-profile split of host time by
// layer, counts from the program's statistics, and the tracing overhead.
// Build and run it with run.sh from the repository root; see README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each system sees; every workload
// reports all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// cpuLayers are the layers of the CPU-profile split, in report order.
var cpuLayers = []string{
	"sim.engine", "core.conflict", "core.gvt", "core.spill", "core.machine",
	"cache.self", "noc.self", "vt.self", "mem.self", "guest.self", layerSwitch,
	"rt.sched", "rt.store", "backend.self", "serve.self", layerHTTP, layerClient,
	layerGC, layerSched,
}

// perLayer are the metrics of a traced run. A traced run reports every
// one of them; those that do not apply to its workload read 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.new_s", "s"},
		{"backend.new_ms", "ms"},
		{"bench.verify_ms", "ms"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"trace.unattributed_share", "ratio"},
		metricDef{"trace.cpu_s", "s"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"op.samples", "count"},
		metricDef{"op.p95_ms", "ms"},
		metricDef{"fail_ratio", "ratio"},
		metricDef{"sim.ns_per_event", "ns"},
	)
	for _, a := range simApps {
		defs = append(defs, metricDef{"sim.run_ms." + a, "ms"})
	}
	defs = append(defs, simCountDefs...)
	defs = append(defs,
		metricDef{"rt.lock_wait_s", "s"},
		metricDef{"rt.cond_wait_s", "s"},
		metricDef{"rt.cpu_util", "ratio"},
		metricDef{"rt.commits", "count"},
		metricDef{"rt.aborts", "count"},
		metricDef{"rt.retries", "count"},
		metricDef{"rt.useful_ratio", "ratio"},
	)
	for _, a := range rtApps {
		defs = append(defs, metricDef{"rt.run_ms." + a, "ms"})
	}
	return append(defs, swarmdDefs...)
}()

type workload struct {
	// reps is how many times a run sets the workload up; setup_s is the
	// median.
	reps int
	// setup builds a fresh instance from the seed and returns it with the
	// part of its set-up time spent building benchmark inputs.
	setup func(seed int64) (instance, time.Duration, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs ops until d has passed and the ops in progress have
	// finished. With a tracer it records spans and fills the tally's
	// per-layer values.
	measure(d time.Duration, tr *tracer) *tally
	close()
}

var workloads = map[string]workload{
	"sim": {
		reps:  10,
		setup: setupEngine("sim", simApps),
	},
	"rt": {
		reps:  10,
		setup: setupEngine("rt", rtApps),
	},
	"swarmd": {
		reps:  5,
		setup: setupDaemon,
	},
}

// tally is what one measured window produced.
type tally struct {
	wall time.Duration
	// rates are the work rates of the window's passes: simulated events,
	// committed tasks or completed jobs per second. work_per_s is their
	// median, which a burst of host noise moves less than the mean.
	rates     []float64
	attempted int
	failed    int
	// lat holds the latency in ms of each op that succeeded, by app
	// (sim, rt) or under "job" (swarmd's computed jobs).
	lat      map[string][]float64
	problems []string
	layer    map[string]float64
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, layer: map[string]float64{}}
}

// fail counts a failed op and keeps the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// window is a tally plus the process-wide costs measured around it.
type window struct {
	*tally
	allocs uint64
	cpu    time.Duration
}

func measureWindow(inst instance, d time.Duration, tr *tracer) window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu := ms.Mallocs, processCPU()
	t := inst.measure(d, tr)
	runtime.ReadMemStats(&ms)
	return window{tally: t, allocs: ms.Mallocs - mallocs, cpu: processCPU() - cpu}
}

// endToEndValues computes the end-to-end metrics of a window.
func (w window) endToEndValues(setup float64) map[string]float64 {
	ops := max(w.attempted, 1)
	return map[string]float64{
		"setup_s":       setup,
		"work_per_s":    median(w.rates),
		"op_p50_ms":     latencyQuantile(w.lat, 0.50),
		"allocs_per_op": float64(w.allocs) / float64(ops),
		"peak_rss_mb":   peakRSSMB(),
	}
}

// latencyQuantile returns the geometric mean over apps of each app's
// q-quantile latency. Apps of a mixed workload differ in run time by up
// to 40x, so a quantile over all their runs together would only say
// which app sits at that rank.
func latencyQuantile(lat map[string][]float64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	logs := 0.0
	for _, xs := range lat {
		logs += math.Log(quantile(xs, q))
	}
	return math.Exp(logs / float64(len(lat)))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: sim, rt or swarmd")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds (a traced run adds half as much again untraced)")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-trace"), "directory for spans and profiles of traced runs")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sim|rt|swarmd --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (result, error) {
	w := workloads[o.workload]
	host, err := json.Marshal(hostInfo(o))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("host %s\n", host)

	var setups, benchNews []float64
	var inst instance
	for i := 0; i < w.reps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		in, bn, err := w.setup(o.seed)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		benchNews = append(benchNews, bn.Seconds())
		inst = in
	}
	defer inst.close()

	d := time.Duration(o.seconds) * time.Second
	res := result{Metrics: map[string]metric{}}
	if !o.trace {
		win := measureWindow(inst, d, nil)
		vals := win.endToEndValues(median(setups))
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
			fmt.Printf("metric %-14s %14.6g %s\n", m.name, vals[m.name], m.unit)
		}
		res.Attempted, res.Failed = win.attempted, win.failed
		res.Correct = report(win.tally)
		return res, nil
	}

	// The traced window gets the full time so that swarmd's tail latency
	// keeps ten samples beyond its 95th percentile; the untraced one only
	// gives the baseline for trace.overhead.
	base := measureWindow(inst, max(d/2, time.Second), nil)
	tr := newTracer()
	profs, err := startProfiles(o.workload == "rt")
	if err != nil {
		return result{}, err
	}
	traced := measureWindow(inst, d, tr)
	if err := profs.stop(); err != nil {
		return result{}, err
	}

	baseVals := base.endToEndValues(median(setups))
	tracedVals := traced.endToEndValues(median(setups))
	for _, m := range endToEnd {
		ratio := 0.0
		if baseVals[m.name] != 0 {
			ratio = tracedVals[m.name] / baseVals[m.name]
		}
		fmt.Printf("e2e %-14s untraced %12.6g traced %12.6g %-5s traced/untraced %.3f\n",
			m.name, baseVals[m.name], tracedVals[m.name], m.unit, ratio)
	}

	vals := traced.layer
	vals["bench.new_s"] = median(benchNews)
	vals["trace.overhead"] = baseVals["work_per_s"] / tracedVals["work_per_s"]
	for _, xs := range traced.lat {
		vals["op.samples"] += float64(len(xs))
	}
	vals["op.p95_ms"] = latencyQuantile(traced.lat, 0.95)
	res.Attempted = base.attempted + traced.attempted
	res.Failed = base.failed + traced.failed
	vals["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	if o.workload == "rt" {
		vals["rt.cpu_util"] = traced.cpu.Seconds() / (traced.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	if err := profs.split(vals); err != nil {
		return result{}, err
	}
	fmt.Printf("trace unattributed share %.4f of %.2f CPU s\n", vals["trace.unattributed_share"], vals["trace.cpu_s"])

	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := profs.save(dir, tr); err != nil {
		return result{}, err
	}
	fmt.Printf("trace written to %s\n", dir)

	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		fmt.Printf("layer %-28s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	okBase, okTraced := report(base.tally), report(traced.tally)
	res.Correct = okBase && okTraced
	return res, nil
}

// report prints a window's failures and says whether it had none.
func report(t *tally) bool {
	for _, p := range t.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	return t.failed == 0 && t.attempted > 0
}

// profiles are the runtime profiles a traced window takes.
type profiles struct {
	cpu          bytes.Buffer
	mutex, block bytes.Buffer
	waits        bool
}

func startProfiles(waits bool) (*profiles, error) {
	p := &profiles{waits: waits}
	if waits {
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1)
	}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiles) stop() error {
	pprof.StopCPUProfile()
	if !p.waits {
		return nil
	}
	defer runtime.SetMutexProfileFraction(0)
	defer runtime.SetBlockProfileRate(0)
	if err := pprof.Lookup("mutex").WriteTo(&p.mutex, 0); err != nil {
		return fmt.Errorf("mutex profile: %w", err)
	}
	if err := pprof.Lookup("block").WriteTo(&p.block, 0); err != nil {
		return fmt.Errorf("block profile: %w", err)
	}
	return nil
}

// split adds the per-layer CPU seconds, the unattributed share and, for
// runs with wait profiles, rt's lock and condition-variable waits.
func (p *profiles) split(vals map[string]float64) error {
	cpu, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		return err
	}
	secs := layerSeconds(cpu)
	total := 0.0
	for l, s := range secs {
		total += s
		if l != layerUnattributed {
			vals[l+"_s"] = s
		}
	}
	vals["trace.cpu_s"] = total
	if total > 0 {
		vals["trace.unattributed_share"] = secs[layerUnattributed] / total
	}
	if !p.waits {
		return nil
	}
	mu, err := parseProfile(p.mutex.Bytes())
	if err != nil {
		return err
	}
	blk, err := parseProfile(p.block.Bytes())
	if err != nil {
		return err
	}
	vals["rt.lock_wait_s"] = waitSeconds(mu, "internal/rt/", "")
	vals["rt.cond_wait_s"] = waitSeconds(blk, "internal/rt/", "sync.(*Cond).Wait")
	return nil
}

// save writes the spans and raw profiles for offline reading with
// `go tool pprof`.
func (p *profiles) save(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]*bytes.Buffer{"cpu.pb.gz": &p.cpu}
	if p.waits {
		files["mutex.pb.gz"], files["block.pb.gz"] = &p.mutex, &p.block
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return tr.write(filepath.Join(dir, "spans.jsonl"))
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB, from
// /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostInfo is the metadata every result carries.
func hostInfo(o options) map[string]any {
	return map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":   cpuModel(),
		"git_commit":  gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the checked-out commit, with "-dirty" when the work
// tree has changes, or "unknown" outside a git work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "-dirty"
	}
	return commit
}
