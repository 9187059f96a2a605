package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/frontier"
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// DSSSP is delta-stepping single-source shortest paths expressed on the
// bucketed-priority frontier: relax(v) tasks carry a bucketed tentative
// distance as their timestamp, while the exact distance lives in the
// vertex's frontier value word. Where the plain sssp app settles each
// vertex at its first (Dijkstra-exact) arrival, delta-stepping is
// label-correcting — a vertex may be relaxed several times as its
// tentative distance improves — and the Delta-wide buckets coalesce whole
// distance ranges onto one timestamp, trading wasted relaxations for
// parallelism (under speculation the wasted ones are aborted or pruned,
// never incorrect). Delta equals graph.CoordScale, the minimum road-edge
// weight scale, so a bucket holds roughly one grid step of wavefront.
type DSSSP struct {
	g   *graph.Graph
	src int
	ref []uint64
}

func init() {
	Register(AppMeta{
		Name:        "dsssp",
		Order:       10,
		Summary:     "delta-stepping SSSP on the bucketed-priority frontier",
		HasParallel: false,
	}, func(s Scale) Benchmark {
		switch s {
		case ScaleTiny:
			return NewDSSSP(graph.RoadNet(16, 16, 7))
		case ScaleSmall:
			return NewDSSSP(graph.RoadNet(36, 36, 7))
		case ScaleLarge:
			return NewDSSSP(graph.MustLoad("roadnet-320x320-s7", func() *graph.Graph {
				return graph.RoadNet(320, 320, 7)
			}))
		default:
			return NewDSSSP(graph.RoadNet(80, 80, 7))
		}
	})
}

// NewDSSSP builds the benchmark on a weighted graph (unweighted real
// inputs get unit weights).
func NewDSSSP(g *graph.Graph) *DSSSP {
	g.EnsureWeights()
	return &DSSSP{g: g, src: 0, ref: graph.Dijkstra(g, 0)}
}

// Name implements Benchmark.
func (b *DSSSP) Name() string { return "dsssp" }

// refDist is the host Dijkstra distance in guest convention.
func (b *DSSSP) refDist(u int) uint64 {
	if b.ref[u] == graph.Inf {
		return graph.Unvisited
	}
	return b.ref[u]
}

// SwarmApp implements Benchmark: task = relax(v) at the bucket of v's
// tentative distance. The frontier's per-vertex line holds the tentative
// distance (value), the distance at which v's edges were last relaxed
// (aux), and the best pending entry (best, for lazy pruning). A handler
// consumes the pending entry, and relaxes v's out-edges only if the
// distance improved since the last relaxation; each edge relaxation is a
// PushMin — improve the child's tentative distance and re-push its
// handler at the new bucket. Quiescence leaves value = aux = the exact
// shortest-path distance, verified against host Dijkstra.
func (b *DSSSP) SwarmApp() SwarmApp {
	var gc graph.GuestCSR
	var fr *frontier.Frontier // set by Build; read by Verify
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		gc = graph.Pack(b.g, ab.Alloc, ab.Store)
		n := uint64(b.g.N)
		fr = frontier.New(ab.Alloc, n, graph.CoordScale)
		for v := uint64(0); v < n; v++ {
			if v == uint64(b.src) {
				// dist = 0, never relaxed, root entry pending at 0.
				fr.Init(ab.Store, v, 0, frontier.Unsettled, 0)
			} else {
				fr.Init(ab.Store, v, frontier.Unsettled, frontier.Unsettled, frontier.NeverPushed)
			}
		}
		relax := ab.Fn("relax", func(e guest.TaskEnv) {
			v := e.Arg(0)
			// This entry is consumed: later improvements must be free to
			// push again, whatever their priority.
			fr.ClearPending(e, v)
			d := fr.Value(e, v)
			e.Work(2)
			if fr.Aux(e, v) <= d {
				return // edges already relaxed at this or a better distance
			}
			fr.SetAux(e, v, d)
			lo := e.Load(gc.OffAddr(v))
			hi := e.Load(gc.OffAddr(v + 1))
			e.Work(14) // relaxation bookkeeping (as sssp, Table 1)
			for i := lo; i < hi; i++ {
				child := e.Load(gc.DstAddr(i))
				w := e.Load(gc.WAddr(i))
				e.Work(2)
				fr.PushMin(e, child, d+w)
			}
		})
		fr.Fn = relax
		return []guest.TaskDesc{guest.TaskDesc{Fn: relax, TS: 0,
			Args: [3]uint64{uint64(b.src), 0}}.WithHint(uint64(b.src) << 1)}
	}
	app.Verify = func(load func(uint64) uint64) error {
		for u := 0; u < b.g.N; u++ {
			if got := load(fr.ValueAddr(uint64(u))); got != b.refDist(u) {
				return fmt.Errorf("dsssp: dist[%d] = %d, want %d", u, got, b.refDist(u))
			}
		}
		return nil
	}
	return app
}

// verifySerial checks the serial flavor's distances (kept in the packed
// CSR's Dist array) against host Dijkstra.
func (b *DSSSP) verifySerial(load func(uint64) uint64, gc graph.GuestCSR) error {
	for u := 0; u < b.g.N; u++ {
		if got := load(gc.DistAddr(uint64(u))); got != b.refDist(u) {
			return fmt.Errorf("dsssp: dist[%d] = %d, want %d", u, got, b.refDist(u))
		}
	}
	return nil
}

func (b *DSSSP) serialBody(e guest.Env, gc graph.GuestCSR, pq swrt.Heap, iterMark func()) {
	pq.Push(e, 0, uint64(b.src))
	for {
		iterMark()
		d, u, ok := pq.PopMin(e)
		if !ok {
			return
		}
		e.Work(1)
		if e.Load(gc.DistAddr(u)) != graph.Unvisited {
			continue
		}
		e.Store(gc.DistAddr(u), d)
		lo := e.Load(gc.OffAddr(u))
		hi := e.Load(gc.OffAddr(u + 1))
		e.Work(2)
		for i := lo; i < hi; i++ {
			v := e.Load(gc.DstAddr(i))
			e.Work(1)
			if e.Load(gc.DistAddr(v)) == graph.Unvisited {
				w := e.Load(gc.WAddr(i))
				pq.Push(e, d+w, v)
			}
		}
	}
}

// SerialApp implements Benchmark: sequential Dijkstra with a binary-heap
// priority queue — the serial optimum delta-stepping degenerates to, and
// the baseline its speedups are quoted against.
func (b *DSSSP) SerialApp() SerialApp {
	var gc graph.GuestCSR
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			gc = graph.Pack(b.g, alloc, store)
			pq := swrt.NewHeap(alloc, uint64(b.g.M())+2)
			return func(e guest.Env, mark func()) { b.serialBody(e, gc, pq, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verifySerial(load, gc) },
	}
}
