package rt

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

// committed is the value the store tests commit as version ver of addr;
// version 0 is the base word. A reader can check any (value, version)
// pair it observed against it.
func committed(addr, ver uint64) uint64 { return addr*0x9e3779b97f4a7c15 ^ ver }

// TestStoreConcurrentReadsStress runs lock-free readers against one
// committer over a hot set that spans overlay pages, base pages, fresh
// pages (the page table grows under the readers) and a high page. As in
// the runtime, the committer writes under a lock and a reader checks the
// current version under it, as validation does. The property is the one
// validation relies on: a reader's (value, version) pair may be torn, but
// only if the version has moved since, so whenever the recorded version
// equals the current one the recorded value is current.
func TestStoreConcurrentReadsStress(t *testing.T) {
	const readers, commits = 4, 20000
	hot := []uint64{1 << 12, 1<<12 - 8, 1 << 16, 1<<16 - 8, 1<<20 + 64, 1 << 40}
	for i := uint64(0); i < 32; i++ {
		hot = append(hot, 1<<22+i<<ovPageShift) // one new page per word: table growth
	}
	base := mem.New()
	for _, a := range hot {
		base.Store(a, committed(a, 0))
	}
	s := newStore(base)

	var mu sync.Mutex // the scheduler lock's part
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				a := hot[i%len(hot)]
				val, ver := s.read(a)
				mu.Lock()
				cur := s.version(a)
				mu.Unlock()
				if val != committed(a, ver) && cur == ver {
					t.Errorf("read(%#x) = (%#x, v%d): value of another version while v%d is current", a, val, ver, ver)
					return
				}
			}
		}(r)
	}
	vers := make(map[uint64]uint64)
	for i := 0; i < commits; i++ {
		a := hot[(i*7)%len(hot)]
		vers[a]++
		mu.Lock()
		s.commitWrite(a, committed(a, vers[a]))
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	for a, v := range vers {
		if val, ver := s.read(a); ver != v || val != committed(a, v) {
			t.Errorf("read(%#x) = (%#x, v%d) after the committer stopped, want (%#x, v%d)", a, val, ver, committed(a, v), v)
		}
	}
}

// TestStoreLayout checks word independence across overlay and base page
// boundaries, untouched words, a commit far above the heap, and a
// two-phase flush.
func TestStoreLayout(t *testing.T) {
	base := mem.New()
	s := newStore(base)
	const ovEdge, baseEdge, high = 1 << ovPageShift, 1 << 16, 1 << 40
	words := []uint64{ovEdge - 8, ovEdge, baseEdge - 8, baseEdge, high}
	for _, a := range words {
		base.Store(a, committed(a, 0))
	}
	base.Store(ovEdge+8, 77)
	for _, a := range words {
		if val, ver := s.read(a); val != committed(a, 0) || ver != 0 {
			t.Errorf("untouched read(%#x) = (%d, v%d), want the base word at v0", a, val, ver)
		}
	}

	// Commit every other word, then all of them: each word keeps its own
	// value and version, whichever side of a page edge it is on.
	for i, a := range words {
		if i%2 == 0 {
			s.commitWrite(a, committed(a, 1))
		}
	}
	for i, a := range words {
		want, wantVer := committed(a, 0), uint64(0)
		if i%2 == 0 {
			want, wantVer = committed(a, 1), 1
		}
		if val, ver := s.read(a); val != want || ver != wantVer || s.version(a) != wantVer {
			t.Errorf("read(%#x) = (%d, v%d), version %d; want (%d, v%d)", a, val, ver, s.version(a), want, wantVer)
		}
	}
	for i, a := range words {
		if i%2 != 0 {
			s.commitWrite(a, committed(a, 1))
		}
	}
	s.commitWrite(ovEdge-8, committed(ovEdge-8, 2))
	if val, ver := s.read(ovEdge + 8); val != 77 || ver != 0 {
		t.Errorf("untouched word beside committed ones read (%d, v%d), want (77, v0)", val, ver)
	}
	if n := len(*s.dense.Load()); n > 64 {
		t.Errorf("page table has %d entries after commits below 64 KB and at 1<<40; want it sized to the heap, not the address", n)
	}

	// Flush writes exactly the committed words; phase 2 starts from an
	// empty overlay at version 0.
	before := base.Snapshot()
	s.flush()
	want := maps.Clone(before)
	for _, a := range words {
		want[a] = committed(a, 1)
	}
	want[ovEdge-8] = committed(ovEdge-8, 2)
	if got := base.Snapshot(); !maps.Equal(got, want) {
		t.Errorf("base after flush = %v, want %v", got, want)
	}
	if len(s.dirty) != 0 || len(*s.dense.Load()) != 0 || s.slot(high) != &untouched {
		t.Errorf("overlay not empty after flush: %d dirty words, %d table entries", len(s.dirty), len(*s.dense.Load()))
	}
	for _, a := range words {
		if val, ver := s.read(a); val != want[a] || ver != 0 || s.version(a) != 0 {
			t.Errorf("phase 2 read(%#x) = (%d, v%d), want the flushed word at v0", a, val, ver)
		}
	}
	s.commitWrite(high, 5)
	if val, ver := s.read(high); val != 5 || ver != 1 {
		t.Errorf("phase 2 commit at 1<<40 read (%d, v%d), want (5, v1)", val, ver)
	}
}

// TestMisalignedAccessPanics: overlay slots are word-indexed, so a
// misaligned address must panic as mem does rather than alias the
// aligned word's slot, for a buffered store and for a load from a
// committed page alike.
func TestMisalignedAccessPanics(t *testing.T) {
	r, err := New(testConfig(t, 1, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.store.commitWrite(1<<12, 7)
	e := &taskEnv{r: r}
	for name, access := range map[string]func(){
		"store": func() { e.Store(1<<12+4, 1) },
		"load":  func() { e.Load(1<<12 + 4) },
	} {
		func() {
			defer func() {
				if v, _ := recover().(string); !strings.Contains(v, "misaligned") {
					t.Errorf("misaligned %s recovered %q, want a misaligned-access panic", name, v)
				}
			}()
			access()
		}()
	}
}

// FuzzAttemptSet drives one attempt buffer through random scripts of
// loads, stores and interleaved commits by other tasks, over an address
// pool small enough for linear scans and wide enough to cross linearMax,
// and checks it against a map model: read-own-writes, repeatable reads,
// the read set in first-read order, and the write set in first-write
// order with final values. Each script runs twice on the same buffer,
// reset between, so the recycled buffer must start clean.
func FuzzAttemptSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 1, 3, 0, 3, 2, 3, 0, 3})
	seed := make([]byte, 0, 3*(2*linearMax+8))
	for i := 0; i < 2*linearMax+8; i++ {
		seed = append(seed, byte(i%3), byte(i), byte(i*5))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := core.DefaultConfig(1)
		cfg.Backend = "rt"
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// Pool: 96 words, in runs of neighbours across several pages.
		addr := func(b byte) uint64 {
			i := uint64(b) % 96
			return 1<<20 + (i/8)*(1<<ovPageShift) + (i%8)*8
		}
		for i := 0; i < 96; i++ {
			r.base.Store(addr(byte(i)), uint64(i)+1000)
		}
		e := &taskEnv{r: r}
		for run := 0; run < 2; run++ {
			e.reset(guest.TaskDesc{})
			var reads, writes []entry
			seenRead := map[uint64]entry{}
			wrote := map[uint64]int{}
			for i := 0; i+2 < len(script); i += 3 {
				a, v := addr(script[i+1]), uint64(script[i+2])
				switch script[i] % 3 {
				case 0:
					want, ok := uint64(0), false
					if j, w := wrote[a]; w {
						want, ok = writes[j].val, true
					} else if rd, seen := seenRead[a]; seen {
						want, ok = rd.val, true
					}
					got := e.Load(a)
					if !ok {
						val, ver := r.store.read(a)
						rd := entry{addr: a, val: val, ver: ver}
						seenRead[a], reads, want = rd, append(reads, rd), val
					}
					if got != want {
						t.Fatalf("run %d op %d: Load(%#x) = %d, want %d", run, i/3, a, got, want)
					}
				case 1:
					e.Store(a, v)
					if j, w := wrote[a]; w {
						writes[j].val = v
					} else {
						wrote[a] = len(writes)
						writes = append(writes, entry{addr: a, val: v})
					}
				case 2: // another task commits a
					r.store.commitWrite(a, v+1<<32)
				}
			}
			if !slices.Equal(e.reads, reads) {
				t.Fatalf("run %d: read set %v, want %v", run, e.reads, reads)
			}
			if !slices.Equal(e.writes, writes) {
				t.Fatalf("run %d: write set %v, want %v", run, e.writes, writes)
			}
		}
	})
}
