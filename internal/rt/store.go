package rt

import (
	"sync"

	"github.com/swarm-sim/swarm/internal/mem"
)

// The versioned store is the runtime's speculative memory system. The
// base mem.Memory is frozen for the duration of a phase (workers read it
// through the mutation-free Peek), and every word committed during the
// phase lives in a sharded overlay of (value, version) pairs. Tasks
// execute against committed state only — speculative writes stay in the
// task's private write buffer until its commit — so the overlay is the
// runtime's single point of cross-task communication:
//
//   - a speculative read returns the overlay word (or the frozen base
//     word at implicit version 0) and records the version it observed;
//   - commit-time validation re-reads the versions of every address in
//     the task's read set; any bump means a conflicting commit slipped
//     between the read and the commit, and the task aborts and retries
//     (optimistic concurrency control with a write buffer, after Saad et
//     al.'s ordered transaction processing);
//   - a committed write bumps the word's version under the shard lock,
//     while the committer also holds the scheduler lock.
//
// At quiescence the overlay is flushed into the base memory, so between
// phases (and after the run) guest memory reads exactly like the
// simulator's committed state.
type store struct {
	base   *mem.Memory
	shards [storeShards]storeShard
}

// storeShards spreads word locks; addresses hash by word index, so
// adjacent words land on different shards and hot lines do not serialize
// the whole machine.
const storeShards = 64

type storeShard struct {
	mu    sync.RWMutex
	words map[uint64]vword
}

// vword is one committed overlay word: its value and the count of
// commits that wrote it this phase (version 0 = untouched base word).
type vword struct {
	val, ver uint64
}

func newStore(base *mem.Memory) *store {
	s := &store{base: base}
	for i := range s.shards {
		s.shards[i].words = make(map[uint64]vword)
	}
	return s
}

func (s *store) shard(addr uint64) *storeShard {
	return &s.shards[(addr>>mem.WordShift)%storeShards]
}

// read returns the committed word at addr and the version the caller
// observed. Safe for concurrent readers at any time.
func (s *store) read(addr uint64) (val, ver uint64) {
	sh := s.shard(addr)
	sh.mu.RLock()
	w, ok := sh.words[addr]
	sh.mu.RUnlock()
	if ok {
		return w.val, w.ver
	}
	return s.base.Peek(addr), 0
}

// version returns the current version of addr (0 = untouched base word).
// The caller must hold the scheduler lock. It reads without the shard
// lock: every writer (commitWrite) also holds the scheduler lock, so no
// write can race it, and concurrent speculative readers only read.
func (s *store) version(addr uint64) uint64 {
	return s.shard(addr).words[addr].ver
}

// commitWrite publishes one committed word, bumping its version. Callers
// hold the scheduler lock, so two commitWrites never race and validation
// (version) sees no write in flight; the shard lock orders them against
// concurrent speculative readers.
func (s *store) commitWrite(addr, val uint64) {
	sh := s.shard(addr)
	sh.mu.Lock()
	w := sh.words[addr]
	sh.words[addr] = vword{val: val, ver: w.ver + 1}
	sh.mu.Unlock()
}

// flush folds the overlay into the base memory and resets it: the
// end-of-phase step that makes committed state visible to setup-cost
// memory access. Single-threaded — every worker has joined.
func (s *store) flush() {
	for i := range s.shards {
		sh := &s.shards[i]
		for addr, w := range sh.words {
			s.base.Store(addr, w.val)
		}
		sh.words = make(map[uint64]vword)
	}
}
