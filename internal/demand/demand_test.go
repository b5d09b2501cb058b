package demand

import (
	"testing"

	"repro/internal/sbuf"
)

type fakeFetch struct {
	latency uint64
	busy    map[uint64]bool
	issued  []uint64
}

func newFakeFetch(latency uint64) *fakeFetch {
	return &fakeFetch{latency: latency, busy: map[uint64]bool{}}
}

func (f *fakeFetch) Prefetch(cycle, addr uint64) (uint64, bool) {
	f.issued = append(f.issued, addr)
	return cycle + f.latency, true
}
func (f *fakeFetch) BusFreeAt(cycle uint64) bool { return !f.busy[cycle] }

func TestNLPPrefetchesNextLine(t *testing.T) {
	f := newFakeFetch(10)
	n := NewNLP(32, 8, f)
	n.AllocationRequest(0, 0x40, 0x1000)
	n.Tick(1)
	if len(f.issued) != 1 || f.issued[0] != 0x1020 {
		t.Fatalf("issued = %#v, want [0x1020]", f.issued)
	}
	// Using the prefetched block chains the next one.
	kind, ready := n.Lookup(20, 0x1020)
	if kind != sbuf.LookupHitReady || ready != 11 {
		t.Errorf("lookup = (%v,%d), want ready hit at 11", kind, ready)
	}
	n.Tick(21)
	if len(f.issued) != 2 || f.issued[1] != 0x1040 {
		t.Errorf("chained issue = %#v, want 0x1040", f.issued)
	}
}

func TestNLPPendingHit(t *testing.T) {
	f := newFakeFetch(100)
	n := NewNLP(32, 8, f)
	n.AllocationRequest(0, 0x40, 0x1000)
	n.Tick(1)
	kind, _ := n.Lookup(5, 0x1020)
	if kind != sbuf.LookupHitPending {
		t.Errorf("early lookup = %v, want pending", kind)
	}
}

func TestNLPBusGating(t *testing.T) {
	f := newFakeFetch(10)
	n := NewNLP(32, 8, f)
	n.AllocationRequest(0, 0x40, 0x1000)
	f.busy[1] = true
	n.Tick(1)
	if len(f.issued) != 0 {
		t.Error("issued while bus busy")
	}
	n.Tick(2)
	if len(f.issued) != 1 {
		t.Error("not issued once bus free")
	}
}

func TestNLPNoDuplicates(t *testing.T) {
	f := newFakeFetch(1000)
	n := NewNLP(32, 8, f)
	n.AllocationRequest(0, 0x40, 0x1000)
	n.AllocationRequest(1, 0x44, 0x1000) // same next line
	n.Tick(2)
	n.Tick(3)
	count := 0
	for _, a := range f.issued {
		if a == 0x1020 {
			count++
		}
	}
	if count > 1 {
		t.Errorf("0x1020 issued %d times", count)
	}
}

func trainChain(m *Markov, addrs ...uint64) {
	for _, a := range addrs {
		m.Train(0x40, a)
	}
}

func TestMarkovPrefetchesLearnedTransition(t *testing.T) {
	f := newFakeFetch(10)
	m := NewMarkov(DefaultMarkovConfig(), f)
	// Learn A -> B twice.
	trainChain(m, 0x1000, 0x5000, 0x1000, 0x5000)
	// A miss on A queues a prefetch of B.
	m.AllocationRequest(100, 0x40, 0x1000)
	m.Tick(101)
	if len(f.issued) != 1 || f.issued[0] != 0x5000 {
		t.Fatalf("issued = %#v, want [0x5000]", f.issued)
	}
	kind, _ := m.Lookup(200, 0x5000)
	if kind != sbuf.LookupHitReady {
		t.Errorf("lookup = %v, want ready hit", kind)
	}
	if m.Stats().PrefetchesUsed != 1 {
		t.Errorf("used = %d", m.Stats().PrefetchesUsed)
	}
}

func TestMarkovMultipleTargets(t *testing.T) {
	f := newFakeFetch(10)
	m := NewMarkov(DefaultMarkovConfig(), f)
	// A is followed by B sometimes and C sometimes.
	trainChain(m, 0x1000, 0x5000, 0x1000, 0x7000, 0x1000)
	m.AllocationRequest(100, 0x40, 0x1000)
	m.Tick(101)
	m.Tick(102)
	if len(f.issued) != 2 {
		t.Fatalf("issued = %#v, want both targets", f.issued)
	}
	got := map[uint64]bool{f.issued[0]: true, f.issued[1]: true}
	if !got[0x5000] || !got[0x7000] {
		t.Errorf("targets = %#v, want 0x5000 and 0x7000", f.issued)
	}
}

func TestMarkovIdlesBetweenMisses(t *testing.T) {
	f := newFakeFetch(10)
	m := NewMarkov(DefaultMarkovConfig(), f)
	trainChain(m, 0x1000, 0x5000, 0x9000, 0x1000)
	m.AllocationRequest(100, 0x40, 0x1000)
	for c := uint64(101); c < 130; c++ {
		m.Tick(c)
	}
	// Only A's direct successors are prefetched — the prefetcher does
	// not re-index with its own prediction (0x9000 must NOT appear).
	for _, a := range f.issued {
		if a == 0x9000 {
			t.Error("Markov prefetcher chained beyond one transition")
		}
	}
	if len(f.issued) != 1 || f.issued[0] != 0x5000 {
		t.Errorf("issued = %#v, want just [0x5000]", f.issued)
	}
}

func TestMarkovAdaptivityDisablesUselessEntries(t *testing.T) {
	cfg := DefaultMarkovConfig()
	cfg.BufEntries = 1 // every new prefetch evicts the previous one
	f := newFakeFetch(10)
	m := NewMarkov(cfg, f)
	trainChain(m, 0x1000, 0x5000, 0x1000, 0x5000) // A -> B
	trainChain(m, 0x2000, 0x6000, 0x2000, 0x6000) // C -> D
	// Alternate misses on A and C: each round prefetches B then D into
	// the single-slot buffer, so B is always evicted unused — charging
	// A's table entry until adaptivity disables it.
	for i := 0; i < 12; i++ {
		c := uint64(100 + i*20)
		m.AllocationRequest(c, 0x40, 0x1000)
		m.Tick(c + 1)
		m.AllocationRequest(c+2, 0x44, 0x2000)
		m.Tick(c + 3)
	}
	if m.Disabled == 0 {
		t.Error("adaptivity never disabled the useless entry")
	}
}

func TestMarkovAdaptivityOffNeverDisables(t *testing.T) {
	cfg := DefaultMarkovConfig()
	cfg.Adaptivity = false
	cfg.BufEntries = 1
	f := newFakeFetch(10)
	m := NewMarkov(cfg, f)
	trainChain(m, 0x1000, 0x5000, 0x1000, 0x5000)
	for i := 0; i < 12; i++ {
		m.AllocationRequest(uint64(100+i*10), 0x40, 0x1000)
		m.Tick(uint64(101 + i*10))
	}
	if m.Disabled != 0 {
		t.Errorf("Disabled = %d with adaptivity off", m.Disabled)
	}
}

func TestMarkovMoveToFront(t *testing.T) {
	f := newFakeFetch(10)
	m := NewMarkov(DefaultMarkovConfig(), f)
	// A->B once, then A->C twice: C should be the primary target.
	trainChain(m, 0x1000, 0x5000, 0x1000, 0x7000, 0x1000, 0x7000, 0x1000)
	cfgBuf := DefaultMarkovConfig()
	_ = cfgBuf
	m.AllocationRequest(100, 0x40, 0x1000)
	m.Tick(101)
	if len(f.issued) == 0 || f.issued[0] != 0x7000 {
		t.Errorf("first prefetch = %#v, want primary target 0x7000", f.issued)
	}
}

func TestMarkovBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("accepted non-power-of-two table")
		}
	}()
	NewMarkov(MarkovConfig{TableEntries: 1000, Targets: 2, BufEntries: 4, BlockBytes: 32},
		newFakeFetch(1))
}

func TestPrefetchBufferLRU(t *testing.T) {
	b := newPrefetchBuffer(2)
	b.insert(bufEntry{block: 0x100, valid: true})
	b.insert(bufEntry{block: 0x200, valid: true})
	ev, was := b.insert(bufEntry{block: 0x300, valid: true})
	if !was || ev.block != 0x100 {
		t.Errorf("evicted = (%#x,%v), want oldest 0x100", ev.block, was)
	}
	if !b.contains(0x200) || !b.contains(0x300) {
		t.Error("expected blocks missing")
	}
	if _, ok := b.lookup(0x200); !ok {
		t.Error("lookup missed resident block")
	}
	if b.contains(0x200) {
		t.Error("lookup did not free the entry")
	}
}
