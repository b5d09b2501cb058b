package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 32B blocks = 256 bytes.
	return NewCache(CacheConfig{Name: "t", SizeBytes: 256, Ways: 2, BlockBytes: 32})
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "neg", SizeBytes: -1, Ways: 1, BlockBytes: 32},
		{Name: "zero-ways", SizeBytes: 256, Ways: 0, BlockBytes: 32},
		{Name: "npot-block", SizeBytes: 256, Ways: 2, BlockBytes: 24},
		{Name: "indivisible", SizeBytes: 300, Ways: 2, BlockBytes: 32},
		{Name: "npot-sets", SizeBytes: 192, Ways: 1, BlockBytes: 32},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q validated but should not", c.Name)
		}
	}
	good := CacheConfig{Name: "ok", SizeBytes: 32 << 10, Ways: 4, BlockBytes: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if good.Sets() != 256 {
		t.Errorf("Sets() = %d, want 256", good.Sets())
	}
}

func TestNewCachePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCache accepted invalid geometry")
		}
	}()
	NewCache(CacheConfig{SizeBytes: 100, Ways: 3, BlockBytes: 32})
}

func TestCacheMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	c.Insert(0x1000)
	if !c.Access(0x1000) {
		t.Fatal("access after insert missed")
	}
	if !c.Access(0x101F) {
		t.Fatal("same-block access missed")
	}
	if c.Access(0x1020) {
		t.Fatal("adjacent block hit without insert")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses, 2 misses", s)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	c := smallCache() // 4 sets, 2 ways; block 32; set = (addr>>5)&3
	// Three blocks mapping to set 0: addr>>5 multiples of 4.
	a := uint64(0 * 32) // set 0
	b := uint64(4 * 32) // set 0
	d := uint64(8 * 32) // set 0
	c.Insert(a)
	c.Insert(b)
	c.Access(a) // make b the LRU
	c.Insert(d) // should evict b
	if !c.Probe(a) {
		t.Error("a evicted but was MRU")
	}
	if c.Probe(b) {
		t.Error("b still resident but was LRU")
	}
	if !c.Probe(d) {
		t.Error("d not resident after insert")
	}
}

func TestCacheInsertReturnsEviction(t *testing.T) {
	c := smallCache()
	c.Insert(0)
	c.Insert(4 * 32)
	ev, was := c.Insert(8 * 32)
	if !was || ev != 0 {
		t.Errorf("eviction = (%#x,%v), want (0,true)", ev, was)
	}
	// Re-inserting a resident block must not evict.
	if _, was := c.Insert(8 * 32); was {
		t.Error("re-insert evicted")
	}
}

func TestCacheProbeDoesNotPerturb(t *testing.T) {
	c := smallCache()
	c.Insert(0)
	before := c.Stats()
	c.Probe(0)
	c.Probe(0x999999)
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := smallCache()
	c.Insert(0x40)
	if !c.Invalidate(0x40) {
		t.Error("Invalidate missed resident block")
	}
	if c.Probe(0x40) {
		t.Error("block resident after invalidate")
	}
	if c.Invalidate(0x40) {
		t.Error("Invalidate hit absent block")
	}
}

// TestCacheInvalidateThenInsertRefillsWay: an invalidated line is an
// invalid way again (stamp 0), so the next fill of its set takes that
// way and evicts nothing, even though another way holds the set's LRU
// line.
func TestCacheInvalidateThenInsertRefillsWay(t *testing.T) {
	c := smallCache()
	const a, b, x = 0x000, 0x080, 0x100 // all in set 0
	c.Insert(a)                         // way 1: the last invalid way wins
	c.Insert(b)                         // way 0
	c.Access(a)                         // b is now the LRU line
	if !c.Invalidate(a) {
		t.Fatal("Invalidate missed resident block")
	}
	if _, wasValid := c.Insert(x); wasValid {
		t.Error("insert into a set with an invalidated way evicted a line")
	}
	if !c.Probe(b) || !c.Probe(x) || c.Probe(a) {
		t.Errorf("after refill: b=%v x=%v a=%v resident, want true true false",
			c.Probe(b), c.Probe(x), c.Probe(a))
	}
	if st := c.Stats(); st.Evicts != 0 || st.Fills != 3 {
		t.Errorf("stats %+v, want 3 fills and no evictions", st)
	}
	if l := c.State().Lines[1]; l.Tag != x>>5 || l.LastUse == 0 {
		t.Errorf("way 1 holds %+v, want the refilled block", l)
	}
}

func TestCacheFlush(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 8; i++ {
		c.Insert(i * 32)
	}
	c.Flush()
	for i := uint64(0); i < 8; i++ {
		if c.Probe(i * 32) {
			t.Fatalf("block %d resident after flush", i)
		}
	}
}

func TestCacheBlockAddr(t *testing.T) {
	c := smallCache()
	if got := c.BlockAddr(0x1234); got != 0x1220 {
		t.Errorf("BlockAddr(0x1234) = %#x, want 0x1220", got)
	}
	if c.BlockShift() != 5 {
		t.Errorf("BlockShift = %d, want 5", c.BlockShift())
	}
}

// Property: the cache never holds more than Ways blocks of any set, and
// a just-inserted block is always resident.
func TestCacheSetInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := smallCache()
		resident := make(map[uint64]bool)
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(64)) * 32
			switch r.Intn(3) {
			case 0:
				c.Insert(addr)
				if !c.Probe(addr) {
					return false
				}
				resident[addr] = true
			case 1:
				c.Access(addr)
			case 2:
				c.Invalidate(addr)
				if c.Probe(addr) {
					return false
				}
			}
		}
		// Count residents per set; must be <= ways.
		counts := make(map[uint64]int)
		for addr := range resident {
			if c.Probe(addr) {
				counts[(addr>>5)&3]++
			}
		}
		for _, n := range counts {
			if n > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Error("idle miss rate not 0")
	}
	s = CacheStats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("MissRate = %v, want 0.3", s.MissRate())
	}
}
