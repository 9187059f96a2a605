package main

import "strings"

// modulePath prefixes every repository source file name in a -trimpath
// build, which is how run.sh builds the benchmark. Files of the program
// carry a version after it ("github.com/swarm-sim/swarm@v0.0.0/internal/..."),
// because the benchmark's module requires the program's.
const modulePath = "github.com/swarm-sim/swarm"

// repoFile returns the repository-relative name of a source file named
// as a -trimpath build records it, and whether it is a repository file.
func repoFile(file string) (string, bool) {
	rest, ok := strings.CutPrefix(file, modulePath)
	if !ok {
		return "", false
	}
	if strings.HasPrefix(rest, "@") {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return "", false
		}
		rest = rest[i:]
	}
	return strings.CutPrefix(rest, "/")
}

// layerMap assigns repository source files to the layers the per-layer
// CPU split reports. A pattern ending in "/" matches every file directly
// in that directory; any other pattern names one file. The first match
// wins, so single files come before their directory. layers_test.go
// checks that every pattern still matches a source file, so a rename
// cannot silently empty a layer.
var layerMap = []struct{ pattern, layer string }{
	{"internal/sim/", "sim.engine"},
	{"internal/core/conflict.go", "core.conflict"},
	{"internal/bloom/", "core.conflict"},
	{"internal/core/gvt.go", "core.gvt"},
	{"internal/core/spill.go", "core.spill"},
	{"internal/core/", "core.machine"},
	{"internal/cache/", "cache.self"},
	{"internal/noc/", "noc.self"},
	{"internal/vt/", "vt.self"},
	{"internal/tsdom/", "vt.self"},
	{"internal/mem/", "mem.self"},
	// Guest code: the coroutine layer plus the applications' task bodies
	// and the libraries only they call.
	{"internal/guest/", "guest.self"},
	{"internal/bench/", "guest.self"},
	{"internal/frontier/", "guest.self"},
	{"internal/tpcc/", "guest.self"},
	{"internal/graph/", "guest.self"},
	{"internal/swrt/", "guest.self"},
	{"internal/rt/sched.go", "rt.sched"},
	{"internal/rt/rt.go", "rt.sched"},
	{"internal/rt/env.go", "rt.store"},
	{"internal/rt/store.go", "rt.store"},
	{"internal/backend/", "backend.self"},
	{"internal/serve/", "serve.self"},
	{"internal/harness/", "serve.self"},
	{"perfbench/", "bench.client"},
}

// Layers that hold samples with no repository frame on the leaf side.
const (
	layerSwitch       = "guest.switch"  // iter.Pull coroutine switches
	layerHTTP         = "serve.http"    // net/http and encoding/json under the daemon
	layerClient       = "bench.client"  // the benchmark's own load generator
	layerGC           = "runtime.gc"    // GC and allocation
	layerSched        = "runtime.sched" // park, wake, futex, idle
	layerUnattributed = "unattributed"
)

// fileLayer returns the layer of a repository source file, given as the
// file name a -trimpath build records.
func fileLayer(file string) (string, bool) {
	rel, ok := repoFile(file)
	if !ok {
		return "", false
	}
	for _, m := range layerMap {
		if matchPattern(m.pattern, rel) {
			return m.layer, true
		}
	}
	return "", false
}

// matchPattern reports whether the repository-relative file rel matches a
// layerMap pattern.
func matchPattern(pattern, rel string) bool {
	dir, ok := strings.CutSuffix(pattern, "/")
	if !ok {
		return rel == pattern
	}
	rest, ok := strings.CutPrefix(rel, dir+"/")
	return ok && !strings.Contains(rest, "/")
}

// gcFrames mark a sample without repository frames as garbage collection
// or allocation work.
var gcFrames = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.markroot", "runtime.scan",
	"runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.(*mheap)", "runtime.(*mspan)",
	"runtime.(*mcentral)", "runtime.(*mcache)", "runtime.(*gcWork)",
	"runtime.wbBuf", "runtime._GC",
}

// attribute assigns one sampled stack, leaf first, to a layer. The layer
// of the innermost repository frame wins, except that a coroutine switch
// nearer the leaf goes to guest.switch, and net/http or encoding/json
// nearer the leaf goes to serve.http (or to the benchmark's client, when
// the frame that called them is the benchmark's). Stacks with no
// repository frame go to runtime.gc, runtime.sched or, if neither fits,
// unattributed.
func attribute(stack []frame) string {
	http := false
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f.fn, "runtime.coroswitch"), strings.HasPrefix(f.fn, "iter."):
			return layerSwitch
		case strings.HasPrefix(f.fn, "net/http."), strings.HasPrefix(f.fn, "encoding/json."):
			http = true
		}
		if l, ok := fileLayer(f.file); ok {
			if http && l != layerClient {
				return layerHTTP
			}
			return l
		}
	}
	if http {
		for _, f := range stack {
			if strings.HasPrefix(f.fn, "net/http.(*persistConn)") || strings.HasPrefix(f.fn, "net/http.(*Transport)") {
				return layerClient
			}
		}
		return layerHTTP
	}
	runtimeOnly := true
	for _, f := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(f.fn, p) {
				return layerGC
			}
		}
		if !strings.HasPrefix(f.fn, "runtime.") && !strings.HasPrefix(f.fn, "internal/runtime/") &&
			!strings.HasPrefix(f.fn, "syscall.") && !strings.HasPrefix(f.fn, "runtime/internal/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly && len(stack) > 0 {
		return layerSched
	}
	return layerUnattributed
}
