package bench

import (
	"fmt"
	"math/rand"

	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// Stream is ordered tumbling-window stream aggregation: timestamped
// (key, value) tuples arrive on several in-order sources and must be
// folded into per-key tumbling-window aggregates in global timestamp
// order, with each window's result emitted exactly when it closes — the
// shared-memory ordered stream processing problem ("Scaling Ordered
// Stream Processing on Shared-Memory Multicores"). The tuned serial
// version k-way-merges the sources through a binary heap — the classic
// ordered-execution bottleneck. The Swarm version needs no merge at all:
// tuple tasks carry their own timestamps, window-flush tasks ride the
// same timestamp order, and the swrt.WindowRing's slot rotation makes
// flush-vs-reuse safe by order alone. There is no software-parallel
// version: lock-based operator parallelism reorders tuples, and published
// shared-memory schemes pay the same merge the serial version does.
type Stream struct {
	nSrc   int
	window uint64
	keys   uint64
	// Flattened per-source tuple arrays: sources own index ranges
	// [srcOff[s], srcOff[s+1]).
	srcOff []uint64
	ts     []uint64
	key    []uint64
	val    []uint64
	nWin   uint64
	ref    []uint64 // nWin x keys per-window per-key sums
}

func init() {
	Register(AppMeta{
		Name:        "stream",
		Order:       8,
		Summary:     "ordered tumbling-window stream aggregation of timestamped tuples",
		HasParallel: false, // software parallelism would reorder tuples or re-pay the merge
	}, func(s Scale) Benchmark {
		switch s {
		case ScaleTiny:
			return NewStream(4, 60, 32, 8, 13)
		case ScaleSmall:
			return NewStream(8, 250, 64, 8, 13)
		default:
			return NewStream(16, 1000, 128, 16, 13)
		}
	})
}

// NewStream builds the benchmark: nSrc sources of perSrc tuples each,
// aggregated over tumbling windows of the given width across keys keys.
func NewStream(nSrc, perSrc int, window, keys uint64, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	b := &Stream{nSrc: nSrc, window: window, keys: keys}
	b.srcOff = make([]uint64, nSrc+1)
	maxTs := uint64(0)
	for s := 0; s < nSrc; s++ {
		b.srcOff[s+1] = b.srcOff[s] + uint64(perSrc)
		t := uint64(s) // stagger source starts
		for i := 0; i < perSrc; i++ {
			t += 1 + uint64(rng.Intn(7))
			b.ts = append(b.ts, t)
			b.key = append(b.key, uint64(rng.Intn(int(keys))))
			b.val = append(b.val, 1+uint64(rng.Intn(100)))
		}
		if t > maxTs {
			maxTs = t
		}
	}
	b.nWin = maxTs/window + 1
	b.ref = make([]uint64, b.nWin*keys)
	for i, t := range b.ts {
		b.ref[(t/window)*keys+b.key[i]] += b.val[i]
	}
	return b
}

// Name implements Benchmark.
func (b *Stream) Name() string { return "stream" }

// ringSlots is the number of concurrently-live windows (window w flushes
// at the (w+1)-th boundary, so two would suffice; four gives speculation
// headroom across window boundaries).
const ringSlots = 4

// guestStream is the layout shared by both flavors: the tuple arrays,
// the accumulator ring and the per-window result matrix.
type guestStream struct {
	ts, key, val swrt.Array
	ring         swrt.WindowRing
	result       swrt.Array // nWin x keys
}

func (b *Stream) pack(alloc func(uint64) uint64, store func(addr, val uint64)) guestStream {
	n := uint64(len(b.ts))
	g := guestStream{
		ts:     swrt.NewArray(alloc, n),
		key:    swrt.NewArray(alloc, n),
		val:    swrt.NewArray(alloc, n),
		result: swrt.NewArray(alloc, b.nWin*b.keys),
	}
	for i := uint64(0); i < n; i++ {
		store(g.ts.Addr(i), b.ts[i])
		store(g.key.Addr(i), b.key[i])
		store(g.val.Addr(i), b.val[i])
	}
	g.ring = swrt.NewWindowRing(alloc, store, ringSlots, b.keys)
	for i := uint64(0); i < b.nWin*b.keys; i++ {
		store(g.result.Addr(i), graph.Unvisited)
	}
	return g
}

func (b *Stream) verify(load func(uint64) uint64, g guestStream) error {
	for w := uint64(0); w < b.nWin; w++ {
		for k := uint64(0); k < b.keys; k++ {
			got := load(g.result.Addr(w*b.keys + k))
			if got != b.ref[w*b.keys+k] {
				return fmt.Errorf("stream: window %d key %d = %d, want %d", w, k, got, b.ref[w*b.keys+k])
			}
		}
	}
	return nil
}

// SwarmApp implements Benchmark: tuple tasks at their own timestamps,
// chained per source (each enqueues its successor, preserving source
// order with no merge structure), plus a chain of window-flush tasks at
// the window boundaries. Flush(w) runs at ts (w+1)*window: after every
// window-w tuple, before any tuple that reuses its ring slot.
func (b *Stream) SwarmApp() SwarmApp {
	var g guestStream
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		g = b.pack(ab.Alloc, ab.Store)
		var tuple, flush guest.FnID
		tuple = ab.Fn("tuple", func(e guest.TaskEnv) {
			i, end := e.Arg(0), e.Arg(1)
			k := e.Load(g.key.Addr(i))
			v := e.Load(g.val.Addr(i))
			slot := g.ring.SlotFor(e.Timestamp() / b.window)
			e.Work(6) // window arithmetic + operator bookkeeping
			g.ring.Add(e, slot, k, v)
			if i+1 < end {
				// Spatial hint: the chain's end index is unique per source,
				// so a source's whole tuple chain — and its key/val/ts array
				// lines — shares one home tile under hint-based mappers.
				e.EnqueueHinted(tuple, e.Load(g.ts.Addr(i+1)), end, [3]uint64{i + 1, end})
			}
		})
		flush = ab.Fn("flush", func(e guest.TaskEnv) {
			w := e.Arg(0)
			slot := g.ring.SlotFor(w)
			e.Work(4)
			for k := uint64(0); k < b.keys; k++ {
				e.Work(1)
				e.Store(g.result.Addr(w*b.keys+k), g.ring.Drain(e, slot, k))
			}
			if w+1 < b.nWin {
				e.EnqueueArgs(flush, (w+2)*b.window, [3]uint64{w + 1})
			}
		})
		roots := make([]guest.TaskDesc, 0, b.nSrc+1)
		for s := 0; s < b.nSrc; s++ {
			lo, hi := b.srcOff[s], b.srcOff[s+1]
			if lo < hi {
				roots = append(roots, guest.TaskDesc{Fn: tuple, TS: b.ts[lo], Args: [3]uint64{lo, hi}}.WithHint(hi))
			}
		}
		roots = append(roots, guest.TaskDesc{Fn: flush, TS: b.window, Args: [3]uint64{0}})
		return roots
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, g) }
	return app
}

// serialFlush drains one window's slot into its result row.
func (b *Stream) serialFlush(e guest.Env, g guestStream, w uint64) {
	slot := g.ring.SlotFor(w)
	e.Work(2)
	for k := uint64(0); k < b.keys; k++ {
		e.Work(1)
		e.Store(g.result.Addr(w*b.keys+k), g.ring.Drain(e, slot, k))
	}
}

func (b *Stream) serialBody(e guest.Env, g guestStream, pq swrt.Heap, pos swrt.Array, iterMark func()) {
	for s := 0; s < b.nSrc; s++ {
		lo, hi := b.srcOff[s], b.srcOff[s+1]
		pos.Set(e, uint64(s), lo)
		e.Work(1)
		if lo < hi {
			pq.Push(e, e.Load(g.ts.Addr(lo)), uint64(s))
		}
	}
	curW := uint64(0)
	for {
		iterMark()
		t, s, ok := pq.PopMin(e)
		if !ok {
			break
		}
		i := pos.Get(e, s)
		k := e.Load(g.key.Addr(i))
		v := e.Load(g.val.Addr(i))
		w := t / b.window
		e.Work(6)
		for curW < w {
			b.serialFlush(e, g, curW)
			curW++
		}
		g.ring.Add(e, g.ring.SlotFor(w), k, v)
		pos.Set(e, s, i+1)
		if i+1 < b.srcOff[s+1] {
			pq.Push(e, e.Load(g.ts.Addr(i+1)), s)
		}
	}
	for ; curW < b.nWin; curW++ {
		b.serialFlush(e, g, curW)
	}
}

// SerialApp implements Benchmark: the tuned serial operator k-way-merges
// the sources through a binary heap keyed by next-tuple timestamp and
// flushes windows as their boundaries pass — every tuple pays the heap's
// pointer chasing, the false dependence §3 describes.
func (b *Stream) SerialApp() SerialApp {
	var g guestStream
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			g = b.pack(alloc, store)
			pq := swrt.NewHeap(alloc, uint64(b.nSrc)+1)
			pos := swrt.NewArray(alloc, uint64(b.nSrc))
			return func(e guest.Env, mark func()) { b.serialBody(e, g, pq, pos, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, g) },
	}
}
