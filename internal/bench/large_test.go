package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestLargeScaleSmoke runs the two shortest large-scale cells end to end
// on the native runtime: input resolution (real file, binary cache, or
// generate-and-cache), a six-figure-commit run, and the host-reference
// verification all have to hold at a scale where generator and CSR bugs
// actually surface (the ~100k-node road network overflows any uint32 arc
// arithmetic left in the loader path). The full large matrix runs in the
// dedicated CI job; this cell keeps `go test ./...` honest without it.
func TestLargeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large inputs: skipped in -short mode")
	}
	for _, name := range []string{"sssp", "dsssp"} {
		t.Run(name, func(t *testing.T) {
			b, err := New(name, ScaleLarge)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(16)
			cfg.Backend = "rt"
			st, err := RunSwarm(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits < 100_000 {
				t.Fatalf("%s at large scale committed only %d tasks — input did not scale", name, st.Commits)
			}
		})
	}
}
