package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects input sizes: Tiny for unit tests, Small for the bench
// harness, Medium for cmd/experiments runs (minutes), Large for real or
// cached on-disk inputs (graph apps load DIMACS/SNAP files when present —
// see internal/graph's input resolution — and fall back to a generated,
// disk-cached graph of comparable size). Each registered application maps
// a Scale to concrete input parameters that keep the structural
// properties driving its behaviour (deep mesh, road network, skewed
// Kronecker graph, chained adder array, TPC-C mix, ...). Apps without a
// dedicated large input treat Large as Medium.
type Scale int

const (
	ScaleTiny Scale = iota
	ScaleSmall
	ScaleMedium
	ScaleLarge
)

func (s Scale) String() string {
	return [...]string{"tiny", "small", "medium", "large"}[s]
}

// ParseScale maps a -scale flag value to a Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small, medium or large)", name)
}

// AppMeta is the registry's per-application metadata, available without
// constructing the (input-generating, possibly expensive) Benchmark.
type AppMeta struct {
	// Name is the benchmark's canonical name (the -app flag value).
	Name string
	// Order fixes the suite position: the paper's six apps first, in
	// Table 4 order, then later additions in the order they were added.
	Order int
	// Summary is a one-line description for CLI usage strings and docs.
	Summary string
	// HasParallel reports whether a software-parallel version exists
	// (whether the Benchmark implements Parallel).
	HasParallel bool
	// Phased reports whether the app is a multi-phase session workload
	// (implements the Phased interface), so API consumers — swarmd's
	// /apps endpoint, per-phase sweeps — can tell without constructing
	// the benchmark.
	Phased bool
	// Figures lists evaluation tables/figures the app is singled out in
	// beyond the whole-suite sweeps (e.g. "fig13", "fig18").
	Figures []string
}

// InFigure reports whether the app is tagged with the given figure.
func (m AppMeta) InFigure(fig string) bool {
	for _, f := range m.Figures {
		if f == fig {
			return true
		}
	}
	return false
}

type regEntry struct {
	meta AppMeta
	mk   func(Scale) Benchmark
}

// registry maps app name to its entry. Registration happens only from
// package init functions; all reads happen after init, so no locking.
var registry = map[string]regEntry{}

// Register adds an application to the registry. Each app file calls it
// from init, so constructing a suite, resolving an -app flag, or
// enumerating the sweep never needs a hardcoded list. Register panics on
// duplicate or empty names (programming errors, caught by any test run).
func Register(meta AppMeta, mk func(Scale) Benchmark) {
	if meta.Name == "" || mk == nil {
		panic("bench: Register requires a name and a constructor")
	}
	if _, dup := registry[meta.Name]; dup {
		panic("bench: duplicate app " + meta.Name)
	}
	registry[meta.Name] = regEntry{meta: meta, mk: mk}
}

// Apps returns the registered apps' metadata in suite order.
func Apps() []AppMeta {
	metas := make([]AppMeta, 0, len(registry))
	for _, e := range registry {
		metas = append(metas, e.meta)
	}
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].Order != metas[j].Order {
			return metas[i].Order < metas[j].Order
		}
		return metas[i].Name < metas[j].Name
	})
	return metas
}

// AppNames returns the registered app names in suite order.
func AppNames() []string {
	metas := Apps()
	names := make([]string, len(metas))
	for i, m := range metas {
		names[i] = m.Name
	}
	return names
}

// Lookup returns an app's metadata by name.
func Lookup(name string) (AppMeta, bool) {
	e, ok := registry[name]
	return e.meta, ok
}

// New constructs one registered app at a scale.
func New(name string, s Scale) (Benchmark, error) {
	e, ok := registry[name]
	if !ok {
		sorted := append([]string(nil), AppNames()...)
		sort.Strings(sorted)
		return nil, fmt.Errorf("bench: unknown app %q (registered: %s)",
			name, strings.Join(sorted, ", "))
	}
	return e.mk(s), nil
}

// NewSuite constructs every registered app at a scale, in suite order.
func NewSuite(s Scale) []Benchmark {
	metas := Apps()
	bs := make([]Benchmark, len(metas))
	for i, m := range metas {
		bs[i] = registry[m.Name].mk(s)
	}
	return bs
}
