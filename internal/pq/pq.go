// Package pq is the one ordered queue the simulator, swarm-rt and the
// oracle share: a binary min-heap over the paper's virtual-time order —
// timestamp, then nested fork path, then a tiebreaker (§4.2, §4.4).
//
// The key is concrete and stored inline in each entry; only the value
// type is generic. A sift therefore compares keys without dereferencing
// values and without calling a method on a type parameter, which Go's
// GC-shape stenciling routes through a dictionary. At swarm-rt's kcore
// ready depth (8.8k entries, 70% of pushes on the head timestamp; 2-CPU
// Xeon, Go 1.24, median of 10 runs) a pop+push took ~170 ns here, ~175
// ns in the hand-written heap this replaced, and ~210 ns in a heap of
// *task calling a Less method on its type parameter.
//
// The heap sifts exactly as container/heap does (Push sifts up; Pop and
// Remove swap with the last entry, sift down, and sift up if the entry
// did not move), so its backing-slice layout — which callers that walk
// it with At observe — is the one container/heap would produce from the
// same operations, ties included.
package pq

import "github.com/swarm-sim/swarm/internal/tsdom"

// Key is an entry's place in the order: TS first, then Path in tsdom
// dag order, then Seq.
type Key struct {
	TS   uint64
	Path tsdom.Path
	Seq  uint64
}

// Less reports whether k orders strictly before o. The timestamp test
// inlines into the sifts; only a timestamp tie takes a call.
func (k *Key) Less(o *Key) bool {
	if k.TS != o.TS {
		return k.TS < o.TS
	}
	return k.tieLess(o)
}

func (k *Key) tieLess(o *Key) bool {
	if len(k.Path)|len(o.Path) != 0 {
		if c := tsdom.Compare(k.Path, o.Path); c != 0 {
			return c < 0
		}
	}
	return k.Seq < o.Seq
}

// Heap is a min-heap of values ordered by their keys. The zero value is
// an empty heap.
//
// An entry pushed with a non-nil pos has *pos kept equal to its index in
// the backing slice, and set to -1 when the entry leaves the heap, so its
// owner can Remove it in O(log n).
type Heap[V any] struct {
	s []entry[V]
}

type entry[V any] struct {
	key Key
	val V
	pos *int32
}

// Len returns the number of entries.
func (h *Heap[V]) Len() int { return len(h.s) }

// At returns the value at index i of the backing slice. Indexes follow
// heap order, not key order.
func (h *Heap[V]) At(i int) V { return h.s[i].val }

// Min returns the value with the least key, or V's zero value when the
// heap is empty.
func (h *Heap[V]) Min() V {
	if len(h.s) == 0 {
		var zero V
		return zero
	}
	return h.s[0].val
}

// Push adds v under key k. pos may be nil.
func (h *Heap[V]) Push(k Key, v V, pos *int32) {
	h.s = append(h.s, entry[V]{})
	h.up(len(h.s)-1, entry[V]{key: k, val: v, pos: pos})
}

// Pop removes and returns the value with the least key; the heap must be
// non-empty.
func (h *Heap[V]) Pop() V { return h.Remove(0) }

// Remove removes and returns the value at index i.
func (h *Heap[V]) Remove(i int) V {
	s := h.s
	n := len(s) - 1
	e, last := s[i], s[n]
	s[n] = entry[V]{}
	h.s = s[:n]
	if i != n && !h.down(i, last) {
		h.up(i, last)
	}
	if e.pos != nil {
		*e.pos = -1
	}
	return e.val
}

// set stores e at index i and records the index in e's position field.
func (h *Heap[V]) set(i int, e entry[V]) {
	h.s[i] = e
	if e.pos != nil {
		*e.pos = int32(i)
	}
}

// up places e at index i, whose slot is free, and sifts it toward the
// root. Moving e along the path and writing it once leaves the layout
// container/heap's pairwise swaps would.
func (h *Heap[V]) up(i int, e entry[V]) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.key.Less(&h.s[p].key) {
			break
		}
		h.set(i, h.s[p])
		i = p
	}
	h.set(i, e)
}

// down places e at index i0, whose slot is free, sifts it toward the
// leaves and reports whether it moved.
func (h *Heap[V]) down(i0 int, e entry[V]) bool {
	s := h.s
	n := len(s)
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].key.Less(&s[c].key) {
			c = r
		}
		if !s[c].key.Less(&e.key) {
			break
		}
		h.set(i, s[c])
		i = c
	}
	h.set(i, e)
	return i > i0
}
