package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/pq"
	"github.com/swarm-sim/swarm/internal/tsdom"
)

// TestOrderQueueMatchesSortedReference drives a tile's order queue (a
// pq.Heap under idleKey) with random pushes (nested paths, heavy
// timestamp ties), removals of random members and head dispatches, and
// checks its minimum against a slice sorted by (timestamp, path, seq)
// after every step. pq's FuzzHeap checks the heap's layout and position
// fields.
func TestOrderQueueMatchesSortedReference(t *testing.T) {
	var root tsdom.Path
	paths := []tsdom.Path{
		root, root.Child(0), root.Child(1), root.Child(0).Child(2),
		root.Child(1).Child(0), root.Child(0).Child(2).Child(1), root.Child(7),
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		var q pq.Heap[*task]
		var ref []*task
		var seq uint64
		push := func(tk *task) {
			seq++
			tk.seq = seq
			q.Push(tk.idleKey(), tk, &tk.heapIdx)
			ref = append(ref, tk)
		}
		remove := func(i int) *task {
			tk := ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if got := q.Remove(int(tk.heapIdx)); got != tk {
				t.Fatal("Remove at a task's queue position took another task")
			}
			if tk.heapIdx != -1 {
				t.Fatal("removed task keeps its queue position")
			}
			return tk
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(ref) == 0:
				push(&task{heapIdx: -1, desc: guest.TaskDesc{TS: uint64(rng.Intn(5)), Path: paths[rng.Intn(len(paths))]}})
			case r < 7:
				tk := remove(rng.Intn(len(ref)))
				if rng.Intn(2) == 0 {
					push(tk) // squashed and re-queued with a fresh seq
				}
			default:
				remove(0) // dispatch the head (ref is sorted after every step)
			}
			sortRef(ref)
			if q.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", q.Len(), len(ref))
			}
			if len(ref) > 0 && q.Min() != ref[0] {
				t.Fatalf("trial %d step %d: Min = ts %d seq %d, want ts %d seq %d",
					trial, step, q.Min().desc.TS, q.Min().seq, ref[0].desc.TS, ref[0].seq)
			}
		}
	}
	if q := (pq.Heap[*task]{}); q.Min() != nil {
		t.Fatal("empty queue has a minimum")
	}
}

func sortRef(ref []*task) {
	sort.Slice(ref, func(i, j int) bool {
		a, b := ref[i], ref[j]
		if a.desc.TS != b.desc.TS {
			return a.desc.TS < b.desc.TS
		}
		if c := tsdom.Compare(a.desc.Path, b.desc.Path); c != 0 {
			return c < 0
		}
		return a.seq < b.seq
	})
}

// TestWay0IndexMatchesReference sets and clears random (bit, slot, set)
// entries while the slot population climbs past several strides, and
// checks every row against reference bitmaps.
func TestWay0IndexMatchesReference(t *testing.T) {
	const nBits = 24
	x := newWay0Index(nBits)
	type key struct {
		bit   uint32
		slot  int32
		write bool
	}
	ref := map[key]bool{}
	var live []key
	rng := rand.New(rand.NewSource(2))
	check := func() {
		t.Helper()
		for i := uint32(0); i < nBits; i++ {
			ws, rs := x.row(i)
			if len(ws) != x.stride || len(rs) != x.stride {
				t.Fatalf("row %d has %d+%d words, stride %d", i, len(ws), len(rs), x.stride)
			}
			for s := int32(0); s < int32(64*x.stride); s++ {
				gotW := ws[s>>6]>>(s&63)&1 == 1
				gotR := rs[s>>6]>>(s&63)&1 == 1
				if gotW != ref[key{i, s, true}] || gotR != ref[key{i, s, false}] {
					t.Fatalf("bit %d slot %d: index (w=%v r=%v), reference (w=%v r=%v)",
						i, s, gotW, gotR, ref[key{i, s, true}], ref[key{i, s, false}])
				}
			}
		}
	}
	for step := 0; step < 6000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			x.clear(k.bit, k.slot, k.write)
			delete(ref, k)
		} else {
			maxSlot := 16 + step/8 // climbs to ~760: strides 2 → 4 → 8 → 16
			k := key{uint32(rng.Intn(nBits)), int32(rng.Intn(maxSlot)), rng.Intn(2) == 0}
			if !ref[k] {
				ref[k] = true
				live = append(live, k)
			}
			x.set(k.bit, k.slot, k.write)
		}
		if step%500 == 0 {
			check()
		}
	}
	check()
	if x.stride != 16 {
		t.Fatalf("stride = %d after slots reached ~760, want 16", x.stride)
	}
}
