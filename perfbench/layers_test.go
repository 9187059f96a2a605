package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// Every layerMap pattern must match at least one non-test source file of
// the repository, or a rename would silently empty its layer.
func TestLayerPatternsMatchSources(t *testing.T) {
	for _, m := range layerMap {
		var files []string
		if dir, ok := strings.CutSuffix(m.pattern, "/"); ok {
			files, _ = filepath.Glob(filepath.Join("..", dir, "*.go"))
		} else if _, err := os.Stat(filepath.Join("..", m.pattern)); err == nil {
			files = []string{m.pattern}
		}
		n := 0
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				n++
			}
		}
		if n == 0 {
			t.Errorf("pattern %q (layer %s) matches no source file", m.pattern, m.layer)
		}
	}
}

func TestAttribute(t *testing.T) {
	prog := func(rel string) string { return modulePath + "@v0.0.0/" + rel }
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"file beats its directory", []frame{
			{"runtime.mallocgc", "runtime/malloc.go"},
			{"core.(*Machine).checkConflict", prog("internal/core/conflict.go")},
			{"core.(*Machine).step", prog("internal/core/machine.go")},
		}, "core.conflict"},
		{"directory", []frame{{"core.(*Machine).step", prog("internal/core/machine.go")}}, "core.machine"},
		{"benchmark's own files", []frame{{"main.main", modulePath + "/perfbench/main.go"}}, layerClient},
		{"coroutine switch", []frame{
			{"runtime.coroswitch_m", "runtime/coro.go"},
			{"iter.Pull[...].func1", "iter/iter.go"},
			{"guest.run", prog("internal/guest/guest.go")},
		}, layerSwitch},
		{"json under the daemon", []frame{
			{"encoding/json.(*encodeState).marshal", "encoding/json/encode.go"},
			{"serve.writeJSON", prog("internal/serve/serve.go")},
		}, layerHTTP},
		{"json under the client", []frame{
			{"encoding/json.Unmarshal", "encoding/json/decode.go"},
			{"main.(*client).pollAll", modulePath + "/perfbench/swarmd.go"},
		}, layerClient},
		{"client transport", []frame{
			{"net/http.(*persistConn).readLoop", "net/http/transport.go"},
		}, layerClient},
		{"server connection", []frame{
			{"net/http.(*conn).serve", "net/http/server.go"},
		}, layerHTTP},
		{"gc worker", []frame{
			{"runtime.scanobject", "runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker", "runtime/mgc.go"},
		}, layerGC},
		{"scheduler", []frame{
			{"runtime.futex", "runtime/sys_linux_amd64.s"},
			{"runtime.findRunnable", "runtime/proc.go"},
			{"runtime.schedule", "runtime/proc.go"},
		}, layerSched},
		{"other standard library", []frame{{"compress/flate.(*compressor).deflate", "compress/flate/deflate.go"}}, layerUnattributed},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// The profile reader must recover this test's own frame from a goroutine
// profile the runtime writes.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) == 0 || p.units[0] != "count" {
		t.Errorf("units = %q, want count first", p.units)
	}
	for _, s := range p.samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".TestParseProfile") && strings.HasSuffix(f.file, "layers_test.go") {
				return
			}
		}
	}
	t.Errorf("no sample of %d has a TestParseProfile frame", len(p.samples))
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i] != (def{w.name, w.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program reports %v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}
