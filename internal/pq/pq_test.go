package pq

import (
	"container/heap"
	"testing"

	"github.com/swarm-sim/swarm/internal/tsdom"
)

// refHeap is the container/heap reference FuzzHeap checks Heap against:
// the same keys, compared the same way, sifted by the standard library.
type refHeap struct {
	s   []refEnt
	pos []int32 // pos[id]: id's index, -1 once it has left
}

type refEnt struct {
	key Key
	id  int
}

func (h *refHeap) Len() int           { return len(h.s) }
func (h *refHeap) Less(i, j int) bool { return refLess(h.s[i].key, h.s[j].key) }
func (h *refHeap) Swap(i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	h.pos[h.s[i].id] = int32(i)
	h.pos[h.s[j].id] = int32(j)
}
func (h *refHeap) Push(x any) {
	e := x.(refEnt)
	h.pos[e.id] = int32(len(h.s))
	h.s = append(h.s, e)
}
func (h *refHeap) Pop() any {
	e := h.s[len(h.s)-1]
	h.s = h.s[:len(h.s)-1]
	h.pos[e.id] = -1
	return e
}

// refLess is the order spelled out in full, path always compared.
func refLess(a, b Key) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if c := tsdom.Compare(a.Path, b.Path); c != 0 {
		return c < 0
	}
	return a.Seq < b.Seq
}

var fuzzPaths = []tsdom.Path{
	tsdom.Root,
	tsdom.Root.Child(0),
	tsdom.Root.Child(1),
	tsdom.Root.Child(0).Child(2),
	tsdom.Root.Child(0).Child(2).Child(1),
	tsdom.Root.Child(1).Child(0),
}

// FuzzHeap runs a byte-coded script of pushes, pops and removals against
// Heap and the container/heap reference. Keys come from a tiny space
// (three timestamps, nested paths, Seq mostly 0), so ties are the common
// case. After every operation the popped values, the whole backing-slice
// layout and every position field must agree: a live entry's field holds
// its index, and a removed entry's reads -1. Entries with odd ids are
// pushed without a position field.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 5, 5, 3, 0, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2})
	f.Add([]byte{1, 7, 9, 1, 8, 9, 0, 6, 3, 3, 1, 3, 0, 2, 2})
	f.Add([]byte{0, 17, 4, 0, 29, 4, 1, 11, 1, 1, 5, 1, 3, 2, 3, 0, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 2, 2, 2, 2}) // right child sifts up; drains empty
	f.Fuzz(func(t *testing.T, script []byte) {
		var h Heap[int]
		ref := &refHeap{}
		var pos []*int32 // pos[id]: Heap's position field for id
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for len(script) > 0 {
			switch op := next() % 4; {
			case op < 2 || h.Len() == 0:
				a, b := next(), next()
				k := Key{TS: uint64(a % 3), Path: fuzzPaths[int(a/3)%len(fuzzPaths)]}
				if b%4 == 3 {
					k.Seq = uint64(b / 4 % 4)
				}
				id := len(pos)
				pos = append(pos, new(int32))
				ref.pos = append(ref.pos, -2)
				*pos[id] = -2
				p := pos[id]
				if id%2 == 1 {
					p = nil
				}
				h.Push(k, id, p)
				heap.Push(ref, refEnt{key: k, id: id})
			case op == 2:
				if got, want := h.Pop(), heap.Pop(ref).(refEnt).id; got != want {
					t.Fatalf("Pop = %d, reference pops %d", got, want)
				}
			default:
				i := int(next()) % h.Len()
				if got, want := h.Remove(i), heap.Remove(ref, i).(refEnt).id; got != want {
					t.Fatalf("Remove(%d) = %d, reference removes %d", i, got, want)
				}
			}
			if h.Len() != len(ref.s) {
				t.Fatalf("Len = %d, reference holds %d", h.Len(), len(ref.s))
			}
			for i, e := range ref.s {
				if h.At(i) != e.id || h.s[i].key != e.key {
					t.Fatalf("slot %d holds id %d key %+v, reference holds id %d key %+v", i, h.At(i), h.s[i].key, e.id, e.key)
				}
			}
			if h.Len() > 0 && h.Min() != ref.s[0].id {
				t.Fatalf("Min = %d, reference head is %d", h.Min(), ref.s[0].id)
			}
			for id := 0; id < len(pos); id += 2 {
				if *pos[id] != ref.pos[id] {
					t.Fatalf("id %d: position field %d, reference index %d", id, *pos[id], ref.pos[id])
				}
			}
		}
		for i := len(h.s); i < cap(h.s); i++ {
			if h.s[:cap(h.s)][i] != (entry[int]{}) {
				t.Fatalf("vacated slot %d not zeroed", i)
			}
		}
		if h.Len() == 0 && h.Min() != 0 {
			t.Fatal("empty heap's Min is not the zero value")
		}
	})
}
