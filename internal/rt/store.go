package rt

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/swarm-sim/swarm/internal/mem"
)

// The versioned store is the runtime's speculative memory system. The
// base mem.Memory is frozen for the duration of a phase (workers read it
// through the mutation-free Peek), and every word committed during the
// phase lives in an overlay of (version, value) slots. Tasks execute
// against committed state only — speculative writes stay in the task's
// private write buffer until its commit — so the overlay is the
// runtime's single point of cross-task communication:
//
//   - a speculative read returns the overlay word (or the frozen base
//     word at implicit version 0) and records the version it observed;
//   - commit-time validation re-reads the versions of every address in
//     the task's read set; any bump means a conflicting commit slipped
//     between the read and the commit, and the task aborts and retries
//     (optimistic concurrency control with a write buffer, after Saad et
//     al.'s ordered transaction processing);
//   - a committed write bumps the word's version. Only the committer,
//     which holds the scheduler lock, writes the overlay.
//
// Layout. The overlay is made of 4 KB pages of guest address space (512
// slots of two atomic.Uint64, 8 KB each), allocated the first time a
// commit writes into one. Pages are smaller than mem.Memory's 64 KB so
// that scattered commits (silo's touch most of its base pages) do not
// pay for a page-sized overlay each. Readers find a page through a flat
// table indexed by page number, published through an atomic.Pointer;
// the committer grows it copy-on-write by doubling, and fills its slots
// with atomic stores, so readers never lock. Page numbers at or above
// denseMax (guest code may commit anywhere mem.Memory accepts, say at
// 1<<40) go to a sync.Map instead, so the table never grows with the
// address.
//
// Read/write order. commitWrite stores the value, then the version;
// read loads the version, then the value (sequentially consistent
// atomics). A reader that sees version v therefore gets the value of
// commit v or of a later commit. In the second case that later commit
// had begun before the reader finished, and it bumps the version before
// it releases the scheduler lock; validation runs under that lock, so it
// finds the recorded version stale and the attempt aborts. Version 0 (or
// no page) means the word is untouched this phase and read returns the
// frozen base word; a commit racing that read likewise leaves a version
// above 0 for validation to find. So a reader may record a torn (version,
// value) pair, but never commits one, and no seqlock-style retry loop is
// needed.
//
// At quiescence the overlay is flushed into the base memory, so between
// phases (and after the run) guest memory reads exactly like the
// simulator's committed state.
type store struct {
	base  *mem.Memory
	dense atomic.Pointer[[]atomic.Pointer[ovPage]] // page number → page, below denseMax
	high  sync.Map                                 // page number → *ovPage, at or above denseMax
	// dirty lists every address committed this phase (the committer
	// appends one when its version leaves 0); flush stores them.
	dirty []uint64
}

const (
	ovPageShift = 12 // 4 KB of guest address space per overlay page
	ovPageWords = 1 << (ovPageShift - mem.WordShift)
	// denseMax bounds the flat page table: 1<<20 pages cover the first
	// 4 GB of guest address space with at most an 8 MB table.
	denseMax = 1 << 20
)

// ovPage is one overlay page. A slot's version counts the commits that
// wrote its word this phase (0 = untouched base word).
type ovPage [ovPageWords]vslot

type vslot struct{ ver, val atomic.Uint64 }

// untouched stands in for the slot of every word on a page no commit has
// written this phase. Nothing stores to it, so it reads version 0.
var untouched vslot

func newStore(base *mem.Memory) *store {
	s := &store{base: base}
	s.dense.Store(new([]atomic.Pointer[ovPage]))
	return s
}

// slot returns addr's overlay slot, or &untouched if no commit has
// written to its page this phase. Safe for concurrent readers at any
// time.
func (s *store) slot(addr uint64) *vslot {
	pn := addr >> ovPageShift
	var p *ovPage
	if t := *s.dense.Load(); pn < uint64(len(t)) {
		p = t[pn].Load()
	} else if pn >= denseMax {
		v, _ := s.high.Load(pn)
		p, _ = v.(*ovPage)
	}
	if p == nil {
		return &untouched
	}
	return &p[(addr>>mem.WordShift)&(ovPageWords-1)]
}

// read returns the committed word at addr and the version the caller
// observed. Safe for concurrent readers at any time. A misaligned addr
// skips the overlay, so base.Peek panics on it as mem does.
func (s *store) read(addr uint64) (val, ver uint64) {
	w := s.slot(addr)
	if ver = w.ver.Load(); ver == 0 || !mem.WordAligned(addr) {
		return s.base.Peek(addr), 0
	}
	return w.val.Load(), ver
}

// version returns the current version of addr (0 = untouched base word).
// Validation calls it under the scheduler lock, so no commit is in
// flight.
func (s *store) version(addr uint64) uint64 {
	return s.slot(addr).ver.Load()
}

// commitWrite publishes one committed word, bumping its version. Callers
// hold the scheduler lock, so commitWrites never race one another.
func (s *store) commitWrite(addr, val uint64) {
	w := s.slot(addr)
	if w == &untouched {
		s.addPage(addr >> ovPageShift)
		w = s.slot(addr)
	}
	ver := w.ver.Load()
	if ver == 0 {
		s.dirty = append(s.dirty, addr)
	}
	w.val.Store(val)
	w.ver.Store(ver + 1)
}

// addPage allocates page pn and publishes it, growing the table to the
// next power of two past pn if needed. Committer only.
func (s *store) addPage(pn uint64) {
	if pn >= denseMax {
		s.high.Store(pn, new(ovPage))
		return
	}
	t := *s.dense.Load()
	if pn >= uint64(len(t)) {
		grown := make([]atomic.Pointer[ovPage], max(64, 1<<bits.Len64(pn)))
		copy(grown, t) // only the committer writes t, so a plain copy races nothing
		s.dense.Store(&grown)
		t = grown
	}
	t[pn].Store(new(ovPage))
}

// flush stores the words committed this phase into the base memory and
// drops the overlay: the end-of-phase step that makes committed state
// visible to setup-cost memory access. Single-threaded — every worker
// has joined.
func (s *store) flush() {
	for _, addr := range s.dirty {
		s.base.Store(addr, s.slot(addr).val.Load())
	}
	s.dirty = s.dirty[:0]
	s.dense.Store(new([]atomic.Pointer[ovPage]))
	s.high.Clear()
}
