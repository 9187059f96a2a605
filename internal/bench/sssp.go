package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// SSSP is Dijkstra's single-source shortest paths (§2.1, Fig 1) on a road
// network (the paper uses the East-USA road graph). The Swarm version's
// timestamps are tentative distances; the software-parallel comparison is
// Bellman-Ford, which trades wasted work for parallelism (§6.2).
type SSSP struct {
	g   *graph.Graph
	src int
	ref []uint64
}

func init() {
	Register(AppMeta{
		Name:        "sssp",
		Order:       1,
		Summary:     "Dijkstra single-source shortest paths on a road network",
		HasParallel: true,
	}, func(s Scale) Benchmark {
		switch s {
		case ScaleTiny:
			return NewSSSP(16, 16, 3)
		case ScaleSmall:
			return NewSSSP(36, 36, 3)
		case ScaleLarge:
			return NewSSSPGraph(graph.MustLoad("roadnet-320x320-s3", func() *graph.Graph {
				return graph.RoadNet(320, 320, 3)
			}))
		default:
			return NewSSSP(80, 80, 3)
		}
	})
}

// NewSSSP builds the benchmark on a rows x cols road network.
func NewSSSP(rows, cols int, seed int64) *SSSP {
	return NewSSSPGraph(graph.RoadNet(rows, cols, seed))
}

// NewSSSPGraph builds the benchmark on an arbitrary weighted graph
// (unweighted real inputs get unit weights).
func NewSSSPGraph(g *graph.Graph) *SSSP {
	g.EnsureWeights()
	return &SSSP{g: g, src: 0, ref: graph.Dijkstra(g, 0)}
}

// Name implements Benchmark.
func (b *SSSP) Name() string { return "sssp" }

func (b *SSSP) verify(load func(uint64) uint64, gc graph.GuestCSR) error {
	for u := 0; u < b.g.N; u++ {
		got := load(gc.DistAddr(uint64(u)))
		want := b.ref[u]
		if want == graph.Inf {
			want = graph.Unvisited
		}
		if got != want {
			return fmt.Errorf("sssp: dist[%d] = %d, want %d", u, got, want)
		}
	}
	return nil
}

// SwarmApp implements Benchmark: task = visit(node), timestamp = tentative
// distance — exactly Fig 1(a) without the software priority queue.
// Profile target (Table 1): ~32 instructions, ~6 words read, ~0.4 written.
func (b *SSSP) SwarmApp() SwarmApp {
	var gc graph.GuestCSR
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		gc = graph.Pack(b.g, ab.Alloc, ab.Store)
		var visit guest.FnID
		visit = ab.Fn("visit", func(e guest.TaskEnv) {
			node := e.Arg(0)
			e.Work(2)
			if e.Load(gc.DistAddr(node)) != graph.Unvisited {
				return // visited path: already settled by a shorter path
			}
			// Non-visited path: settle and relax the out-edges.
			e.Store(gc.DistAddr(node), e.Timestamp())
			lo := e.Load(gc.OffAddr(node))
			hi := e.Load(gc.OffAddr(node + 1))
			e.Work(14) // relaxation bookkeeping (Table 1: ~32 instrs)
			for i := lo; i < hi; i++ {
				child := e.Load(gc.DstAddr(i))
				w := e.Load(gc.WAddr(i))
				e.Work(2)
				// Spatial hint: the destination vertex, so all relaxations
				// of one vertex share a home tile under hint-based mappers.
				e.EnqueueHinted(visit, e.Timestamp()+w, child, [3]uint64{child})
			}
		})
		return []guest.TaskDesc{guest.TaskDesc{Fn: visit, TS: 0, Args: [3]uint64{uint64(b.src)}}.WithHint(uint64(b.src))}
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, gc) }
	return app
}

func (b *SSSP) serialBody(e guest.Env, gc graph.GuestCSR, pq swrt.Heap, iterMark func()) {
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

// SerialApp implements Benchmark: Fig 1(a)'s sequential Dijkstra with a
// binary-heap priority queue in guest memory.
func (b *SSSP) SerialApp() SerialApp {
	var gc graph.GuestCSR
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			gc = graph.Pack(b.g, alloc, store)
			pq := swrt.NewHeap(alloc, uint64(b.g.M())+2)
			return func(e guest.Env, mark func()) { b.serialBody(e, gc, pq, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, gc) },
	}
}

// RunParallel implements Parallel: Bellman-Ford with shared round-based
// worklists (as in the paper's Galois-derived baseline): threads relax
// nodes out of priority order, revisiting nodes whose distance later
// improves — wasted work in exchange for parallelism.
func (b *SSSP) RunParallel(nCores int) (uint64, error) {
	m := smp.NewMachine(smp.DefaultConfig(nCores))
	gc := graph.Pack(b.g, m.SetupAlloc, m.Mem().Store)
	n := uint64(b.g.N)
	// Worklists can exceed n (duplicates): size generously.
	capacity := 4*n + 64
	listA := swrt.NewArray(m.SetupAlloc, capacity)
	listB := swrt.NewArray(m.SetupAlloc, capacity)
	// Control block: [curBase, curCount, nextBase, nextCount, fetchIdx].
	ctl := m.SetupAlloc(64)
	bar := swrt.NewBarrier(m.SetupAlloc, uint64(nCores))
	m.Mem().Store(ctl, listA.Base)
	m.Mem().Store(ctl+8, 1)
	m.Mem().Store(ctl+16, listB.Base)
	m.Mem().Store(listA.Base, uint64(b.src))
	m.Mem().Store(gc.DistAddr(uint64(b.src)), 0)

	const chunk = 16
	st, err := m.Run(func(e guest.ThreadEnv) {
		var sense uint64
		for {
			curBase := e.Load(ctl)
			curCount := e.Load(ctl + 8)
			nextBase := e.Load(ctl + 16)
			if curCount == 0 {
				return
			}
			for {
				start := e.FetchAdd(ctl+32, chunk)
				if start >= curCount {
					break
				}
				end := start + chunk
				if end > curCount {
					end = curCount
				}
				for fi := start; fi < end; fi++ {
					u := e.Load(curBase + fi*8)
					du := e.Load(gc.DistAddr(u))
					lo := e.Load(gc.OffAddr(u))
					hi := e.Load(gc.OffAddr(u + 1))
					e.Work(2)
					for i := lo; i < hi; i++ {
						v := e.Load(gc.DstAddr(i))
						w := e.Load(gc.WAddr(i))
						nd := du + w
						// Atomic relax; re-append on improvement
						// (source of Bellman-Ford's wasted work).
						for {
							cur := e.Load(gc.DistAddr(v))
							e.Work(1)
							if nd >= cur {
								break
							}
							if e.CAS(gc.DistAddr(v), cur, nd) {
								slot := e.FetchAdd(ctl+24, 1)
								if slot >= capacity {
									panic("sssp: worklist overflow")
								}
								e.Store(nextBase+slot*8, v)
								break
							}
						}
					}
				}
			}
			bar.Wait(e, &sense)
			if e.ID() == 0 {
				nc := e.Load(ctl + 24)
				e.Store(ctl, nextBase)
				e.Store(ctl+8, nc)
				e.Store(ctl+16, curBase)
				e.Store(ctl+24, 0)
				e.Store(ctl+32, 0)
			}
			bar.Wait(e, &sense)
		}
	})
	if err != nil {
		return 0, err
	}
	// Bellman-Ford leaves Unvisited distances as Unvisited too; both
	// conventions match (unreachable only).
	return st.Cycles, b.verify(m.Mem().Load, gc)
}
