// Simulator-core microbenchmarks: host-side throughput of the event engine
// and the speculative-execution machinery, measured end-to-end per app.
// These track the simulator's own performance (events fired per wall-clock
// second, host nanoseconds per simulated cycle, allocations per run) —
// the numbers behind the BENCH_simcore.json trajectory.
//
// Run interactively:
//
//	go test -bench Simcore -benchmem -run '^$'
//
// Emit the JSON record (written to BENCH_simcore.json in the repo root):
//
//	SWARM_BENCH_JSON=1 go test -run TestWriteSimcoreBenchJSON -timeout 1h
package swarm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
)

// simcoreApps are the microbenchmark workloads: sssp and des are the two
// canonical profiles (priority-queue-heavy graph app, abort-heavy ordered
// discrete-event app); cores and scale keep one run in the hundreds of
// milliseconds so -bench converges quickly.
var simcoreApps = []string{"sssp", "des"}

// simcoreBackends are the measured native-runtime points: swarm-rt
// executes the same guest programs on host goroutines, so its
// committed-tasks-per-second sits next to the simulator's events-per-
// second in the JSON record. (rt-conservative is a semantics variant,
// not a performance point — one runtime cell is enough trajectory.)
var simcoreBackends = []string{"rt"}

const (
	simcoreScale = bench.ScaleSmall
	simcoreCores = 64
)

// runSimcoreOnce runs one app once on the named backend ("sim" is the
// cycle-level simulator) and returns its stats.
func runSimcoreOnce(tb testing.TB, b bench.Benchmark, backendName string) core.Stats {
	cfg := core.DefaultConfig(simcoreCores)
	cfg.Backend = backendName
	st, err := bench.RunSwarm(b, cfg)
	if err != nil {
		tb.Fatalf("%s backend=%s: %v", b.Name(), backendName, err)
	}
	return st
}

func BenchmarkSimcore(b *testing.B) {
	for _, name := range simcoreApps {
		app, err := bench.New(name, simcoreScale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/backend=sim", func(b *testing.B) {
			b.ReportAllocs()
			var events, cycles uint64
			for i := 0; i < b.N; i++ {
				st := runSimcoreOnce(b, app, "sim")
				events += st.Events
				cycles += st.Cycles
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(events)/sec, "events/sec")
			}
			if cycles > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/sim-cycle")
			}
		})
		for _, bkname := range simcoreBackends {
			bkname := bkname
			b.Run(fmt.Sprintf("%s/backend=%s", name, bkname), func(b *testing.B) {
				b.ReportAllocs()
				var commits uint64
				for i := 0; i < b.N; i++ {
					commits += runSimcoreOnce(b, app, bkname).Commits
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(commits)/sec, "tasks/sec")
				}
			})
		}
	}
}

// SimcoreRecord is the schema of BENCH_simcore.json: one measurement of
// simulator-core host performance per app, plus host metadata. Each run
// replaces the file with the current snapshot; the trajectory lives in
// version control (one committed snapshot per change), which is what
// makes host-side regressions visible. Numbers are comparable only
// between records with the same num_cpu and gomaxprocs.
type SimcoreRecord struct {
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Scale      string            `json:"scale"`
	Cores      int               `json:"cores"`
	Apps       []SimcoreAppEntry `json:"apps"`
}

// SimcoreAppEntry is one app's host-performance measurement. Entries
// without a Backend are the simulator. Entries with a Backend are
// native-runtime points: no events or cycles exist there, so the
// throughput number is committed guest tasks per second instead.
type SimcoreAppEntry struct {
	App           string  `json:"app"`
	Backend       string  `json:"backend,omitempty"`
	EventsPerSec  float64 `json:"events_per_sec"`
	TasksPerSec   float64 `json:"tasks_per_sec,omitempty"`
	NsPerSimCycle float64 `json:"ns_per_sim_cycle"`
	NsPerOp       int64   `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	Events        uint64  `json:"events"`
	SimCycles     uint64  `json:"sim_cycles"`
}

// TestWriteSimcoreBenchJSON measures every simcore (app, backend) point
// via testing.Benchmark and writes BENCH_simcore.json. Gated behind
// SWARM_BENCH_JSON so normal test runs don't spend minutes benchmarking;
// CI's bench jobs set the variable and upload the artifact.
func TestWriteSimcoreBenchJSON(t *testing.T) {
	if os.Getenv("SWARM_BENCH_JSON") == "" {
		t.Skip("set SWARM_BENCH_JSON=1 to run the simcore benchmarks and write BENCH_simcore.json")
	}
	rec := SimcoreRecord{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      simcoreScale.String(),
		Cores:      simcoreCores,
	}
	for _, name := range simcoreApps {
		app, err := bench.New(name, simcoreScale)
		if err != nil {
			t.Fatal(err)
		}
		var last core.Stats
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				last = runSimcoreOnce(b, app, "sim")
			}
		})
		nsPerOp := res.NsPerOp()
		entry := SimcoreAppEntry{
			App:         name,
			NsPerOp:     nsPerOp,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Events:      last.Events,
			SimCycles:   last.Cycles,
		}
		if nsPerOp > 0 {
			entry.EventsPerSec = float64(last.Events) / (float64(nsPerOp) / 1e9)
			entry.NsPerSimCycle = float64(nsPerOp) / float64(last.Cycles)
		}
		rec.Apps = append(rec.Apps, entry)
		t.Logf("%s sim: %.0f events/sec, %.1f ns/sim-cycle, %d allocs/op, %d B/op",
			name, entry.EventsPerSec, entry.NsPerSimCycle, entry.AllocsPerOp, entry.BytesPerOp)
		for _, bkname := range simcoreBackends {
			var last core.Stats
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					last = runSimcoreOnce(b, app, bkname)
				}
			})
			// No DeepEqual tripwire here: rt's committed results are
			// deterministic but its wall-clock and abort counts are not.
			// The cross-backend differential suite guards correctness.
			entry := SimcoreAppEntry{
				App:         name,
				Backend:     bkname,
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			if res.NsPerOp() > 0 {
				entry.TasksPerSec = float64(last.Commits) / (float64(res.NsPerOp()) / 1e9)
			}
			rec.Apps = append(rec.Apps, entry)
			t.Logf("%s backend=%s: %.0f tasks/sec, %d allocs/op, %d B/op",
				name, bkname, entry.TasksPerSec, entry.AllocsPerOp, entry.BytesPerOp)
		}
	}
	f, err := os.Create("BENCH_simcore.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_simcore.json")
}
