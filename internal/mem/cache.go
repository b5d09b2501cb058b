// Package mem models the memory hierarchy of the paper's baseline
// machine (§5.1): split 32K L1 caches, a unified 1MB pipelined L2, a
// 120-cycle main memory, an 8-byte/cycle L1↔L2 bus, a 4-byte/cycle
// L2↔memory bus, MSHRs, and a data TLB.
//
// The model is timing-only: caches track tags, not data (functional
// values come from the VM). Latency composition is arithmetic — each
// access computes its completion cycle from bus occupancy, pipeline
// initiation intervals and fixed latencies — which reproduces the bus
// contention and overlap behaviour the paper's results depend on
// without a full event queue.
package mem

import "fmt"

// CacheConfig describes one cache.
type CacheConfig struct {
	Name       string // used in error and stats output
	SizeBytes  int    // total capacity
	Ways       int    // associativity
	BlockBytes int    // line size (power of two)
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Validate reports configuration errors.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0:
		return fmt.Errorf("mem: cache %q: non-positive geometry %+v", c.Name, c)
	case c.SizeBytes > 1<<30:
		return fmt.Errorf("mem: cache %q: size %d exceeds 1GB limit", c.Name, c.SizeBytes)
	case c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("mem: cache %q: block size %d not a power of two", c.Name, c.BlockBytes)
	case c.SizeBytes%(c.Ways*c.BlockBytes) != 0:
		return fmt.Errorf("mem: cache %q: size %d not divisible by ways*block", c.Name, c.SizeBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("mem: cache %q: set count %d not a power of two", c.Name, c.Sets())
	}
	return nil
}

// CacheLineState is one 16-byte tag-array line: the block tag and the
// LRU stamp of the line's last use. LastUse == 0 marks an invalid line;
// Access and Insert advance the cache clock before stamping, so every
// stamp a line receives is at least 1. Validity thus costs no field of
// its own, a 4-way set fills 64 bytes, and a tag array snapshots and
// restores as one copy.
type CacheLineState struct {
	Tag     uint64
	LastUse uint64
}

// CacheStats counts raw tag-array activity. The paper's "in-flight
// counts as a miss" metric is assembled at the CPU level, where stream
// buffer and MSHR state is visible.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
	Fills    uint64
	Evicts   uint64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative, LRU, tag-only cache model.
type Cache struct {
	cfg        CacheConfig
	blockShift uint
	setMask    uint64
	lines      []CacheLineState // sets*ways, row-major by set
	clock      uint64
	stats      CacheStats
}

// NewCache builds a cache from cfg; it panics on invalid geometry
// (configurations are static, fixed by the experiment definitions).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift < cfg.BlockBytes {
		shift++
	}
	return &Cache{
		cfg:        cfg,
		blockShift: shift,
		setMask:    uint64(cfg.Sets() - 1),
		lines:      make([]CacheLineState, cfg.Sets()*cfg.Ways),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the raw counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr >> c.blockShift << c.blockShift
}

// BlockShift returns log2 of the block size.
func (c *Cache) BlockShift() uint { return c.blockShift }

func (c *Cache) set(addr uint64) []CacheLineState {
	idx := (addr >> c.blockShift) & c.setMask
	return c.lines[idx*uint64(c.cfg.Ways) : (idx+1)*uint64(c.cfg.Ways)]
}

// findWay returns the way index of tag in set, or -1. The set slice is
// derived once by the caller: demand accesses probe, then access, then
// possibly insert the same block, and re-deriving the set bounds inside
// each loop iteration is measurable on that hot path.
func findWay(set []CacheLineState, tag uint64) int {
	for i := range set {
		if set[i].Tag == tag && set[i].LastUse != 0 {
			return i
		}
	}
	return -1
}

// Probe reports whether addr's block is resident, without touching LRU
// state or statistics. No simulator path calls it: tests use it to
// observe residency.
func (c *Cache) Probe(addr uint64) bool {
	return findWay(c.set(addr), addr>>c.blockShift) >= 0
}

// Access looks up addr, updating LRU and statistics. It reports a hit.
// It does not allocate on miss; callers decide fill policy via Insert.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	set := c.set(addr)
	if i := findWay(set, addr>>c.blockShift); i >= 0 {
		set[i].LastUse = c.clock
		return true
	}
	c.stats.Misses++
	return false
}

// Insert fills addr's block, evicting the LRU line if needed: the last
// invalid way of the set if there is one, otherwise the way with the
// smallest stamp. It returns the evicted block address and whether an
// eviction occurred. Inserting an already-resident block refreshes its
// LRU position.
func (c *Cache) Insert(addr uint64) (evicted uint64, wasValid bool) {
	c.clock++
	tag := addr >> c.blockShift
	set := c.set(addr)
	victim := 0
	for i := range set {
		l := set[i].LastUse
		if set[i].Tag == tag && l != 0 {
			set[i].LastUse = c.clock
			return 0, false
		}
		// An invalid victim (stamp 0) is never displaced by a valid
		// way, since no stamp is below 0.
		if l == 0 || l < set[victim].LastUse {
			victim = i
		}
	}
	v := &set[victim]
	evicted, wasValid = v.Tag<<c.blockShift, v.LastUse != 0
	if wasValid {
		c.stats.Evicts++
	}
	c.stats.Fills++
	*v = CacheLineState{Tag: tag, LastUse: c.clock}
	return evicted, wasValid
}

// Invalidate removes addr's block if resident, reporting whether it was.
func (c *Cache) Invalidate(addr uint64) bool {
	set := c.set(addr)
	if i := findWay(set, addr>>c.blockShift); i >= 0 {
		set[i].LastUse = 0
		return true
	}
	return false
}

// Flush invalidates every line and clears LRU state (statistics are
// preserved). Used between benchmark phases in tests.
func (c *Cache) Flush() { clear(c.lines) }
