package core

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/noc"
)

// Task mapping: the policy that picks the destination tile for every
// enqueued task. The paper's design load-balances through uniform-random
// enqueues (§7: "distributed priority queues, load-balanced through random
// enqueues"); follow-up data-centric work shows that spatial hints — a
// stable application-level key sent with the descriptor — recover locality
// the random policy throws away. The mapper is chosen per machine via
// Config.Mapper and is the first knob in this codebase that changes
// simulated-machine performance rather than host performance.
//
// Policies:
//
//	random     uniform-random tile per enqueue (the paper's design; default,
//	           bit-identical to the pre-mapper machine)
//	roundrobin cycle through tiles in order (a load-balance-only control)
//	hint       send hinted tasks to hash(hint key) % tiles, so all work on
//	           one key shares a home tile; hintless tasks stay local
//	stealing   hint placement plus GVT-epoch work stealing: each GVT round,
//	           overloaded tiles donate queued idle tasks to the emptiest
//	           tile, bounding the load imbalance hint affinity can build up

// mapper is the per-machine task-mapping policy.
type mapper interface {
	name() string
	// place returns the destination tile for d, enqueued from tile src
	// (src < 0 for root enqueues during Setup).
	place(m *Machine, d guest.TaskDesc, src int) int
	// epoch runs once per GVT round, before the GVT bound is computed,
	// letting load-aware policies migrate queued work between tiles.
	epoch(m *Machine)
}

// MapperNames lists the registered task-mapping policies (the valid
// Config.Mapper / -mapper values), default first.
func MapperNames() []string { return []string{"random", "hint", "stealing", "roundrobin"} }

// newMapper builds the policy named by cfg.Mapper ("" selects random).
func newMapper(name string) (mapper, error) {
	switch name {
	case "", "random":
		return &randomMapper{}, nil
	case "roundrobin":
		return &rrMapper{}, nil
	case "hint":
		return &hintMapper{}, nil
	case "stealing":
		return &stealingMapper{}, nil
	}
	return nil, fmt.Errorf("core: unknown mapper %q (valid: %s)", name, sortedNames(MapperNames()))
}

// randomMapper reproduces the paper's uniform-random enqueue placement.
// The rng draw happens even when LocalEnqueue overrides the target, so the
// machine's random stream — and therefore every simulated outcome — is
// bit-identical to the pre-mapper implementation.
type randomMapper struct{}

func (*randomMapper) name() string { return "random" }

func (*randomMapper) place(m *Machine, _ guest.TaskDesc, src int) int {
	target := m.rng.Intn(m.cfg.Tiles)
	if m.cfg.LocalEnqueue && src >= 0 {
		return src
	}
	return target
}

func (*randomMapper) epoch(*Machine) {}

// rrMapper cycles through tiles: perfectly even placement with zero
// locality — the control that separates load balance from affinity.
type rrMapper struct{ next int }

func (*rrMapper) name() string { return "roundrobin" }

func (r *rrMapper) place(m *Machine, _ guest.TaskDesc, _ int) int {
	t := r.next
	r.next++
	if r.next == m.cfg.Tiles {
		r.next = 0
	}
	return t
}

func (*rrMapper) epoch(*Machine) {}

// hintTile is the home tile of a spatial hint key: a fixed 64-bit mix
// (splitmix64's finalizer) spreads keys uniformly while keeping every task
// carrying the same key on the same tile.
func hintTile(key uint64, tiles int) int {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return int(key % uint64(tiles))
}

// hintMapper sends hinted tasks to their key's home tile and keeps
// hintless tasks (spawners, continuations) on the enqueuing tile; hintless
// roots fall back to round-robin so Setup still seeds every tile.
type hintMapper struct{ rootRR int }

func (*hintMapper) name() string { return "hint" }

func (h *hintMapper) place(m *Machine, d guest.TaskDesc, src int) int {
	if key, ok := d.HintKey(); ok {
		return hintTile(key, m.cfg.Tiles)
	}
	if src >= 0 {
		return src
	}
	t := h.rootRR
	h.rootRR++
	if h.rootRR == m.cfg.Tiles {
		h.rootRR = 0
	}
	return t
}

func (*hintMapper) epoch(*Machine) {}

// Stealing parameters: a victim tile must hold at least stealMinGap more
// idle tasks than the thief before tasks move, and one epoch moves at most
// stealBatch tasks (a task descriptor per NoC message, like an enqueue).
const (
	stealMinGap = 8
	stealBatch  = 8
)

// stealingMapper is hint placement plus GVT-epoch work stealing: affinity
// for the common case, with the arbiter's periodic round re-leveling the
// queues when key skew piles work onto few tiles.
type stealingMapper struct{ hintMapper }

func (*stealingMapper) name() string { return "stealing" }

func (*stealingMapper) epoch(m *Machine) {
	if m.cfg.Tiles < 2 {
		return
	}
	// Thief: the tile with the fewest queued idle tasks; victim: the tile
	// with the most. Ties break on tile id so epochs are deterministic.
	thief, victim := m.tiles[0], m.tiles[0]
	for _, tt := range m.tiles[1:] {
		if tt.idleQ.Len() < thief.idleQ.Len() {
			thief = tt
		}
		if tt.idleQ.Len() > victim.idleQ.Len() {
			victim = tt
		}
	}
	if victim.idleQ.Len() < thief.idleQ.Len()+stealMinGap {
		return
	}
	// Steal from the victim's movable set (movableTasks — the same
	// eligibility rule the coalescer spills by): idle, parentless worker
	// tasks whose identity lives entirely in the descriptor, so changing
	// tiles cannot break abort tracking or splitter batches, highest
	// timestamps first. The queue head stays put: the earliest task is
	// about to dispatch where it is.
	for _, t := range movableTasks(victim, stealBatch) {
		if !m.hasSpace(thief) {
			break
		}
		unqueue(&victim.idleQ, t, t.heapIdx)
		victim.nTasks--
		m.mesh.Send(victim.id, thief.id, noc.ClassEnqueue, noc.TaskDescBytes)
		m.insertIdle(thief, t)
		m.st.stolen++
	}
	m.drainOverflow(victim)
	m.checkSpillTrigger(victim)
}
