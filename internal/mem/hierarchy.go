package mem

import "fmt"

// Config assembles the whole hierarchy. DefaultConfig matches the
// paper's baseline (§5.1).
type Config struct {
	L1D CacheConfig
	L1I CacheConfig
	L2  CacheConfig

	L2Latency   uint64 // cycles
	L2PipeDepth int    // accesses in flight
	MemLatency  uint64 // cycles

	L1L2BusBytes int // bytes per cycle, L1 <-> L2
	MemBusBytes  int // bytes per cycle, L2 <-> memory

	DMSHRs int // L1D miss-status registers
	IMSHRs int // L1I miss-status registers

	TLBEntries int
	PageBytes  int
	TLBWalk    uint64 // page-walk penalty in cycles
}

// DefaultConfig returns the paper's baseline memory system: 32K 4-way
// L1D and 32K 2-way L1I with 32-byte lines; 1MB unified L2 with
// 64-byte lines, 12-cycle latency pipelined three deep; 120-cycle
// memory; 8 B/cycle L1-L2 bus and 4 B/cycle L2-memory bus.
func DefaultConfig() Config {
	return Config{
		L1D:          CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, BlockBytes: 32},
		L1I:          CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 2, BlockBytes: 32},
		L2:           CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 4, BlockBytes: 64},
		L2Latency:    12,
		L2PipeDepth:  3,
		MemLatency:   120,
		L1L2BusBytes: 8,
		MemBusBytes:  4,
		DMSHRs:       16,
		IMSHRs:       4,
		TLBEntries:   64,
		PageBytes:    4096,
		TLBWalk:      30,
	}
}

// Validate reports whether the configuration can build a Hierarchy
// without panicking: valid cache geometries, positive bus bandwidths,
// a constructible L2 pipeline, positive MSHR counts and a valid TLB,
// all within sane bounds.
func (c Config) Validate() error {
	for _, cc := range []CacheConfig{c.L1D, c.L1I, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	const maxLatency = 1 << 20
	if c.L2Latency == 0 || c.L2Latency > maxLatency {
		return fmt.Errorf("mem: L2 latency %d outside 1..%d", c.L2Latency, maxLatency)
	}
	if c.L2PipeDepth <= 0 || c.L2PipeDepth > 1024 {
		return fmt.Errorf("mem: L2 pipeline depth %d outside 1..1024", c.L2PipeDepth)
	}
	if c.MemLatency > maxLatency {
		return fmt.Errorf("mem: memory latency %d exceeds %d", c.MemLatency, maxLatency)
	}
	if c.L1L2BusBytes <= 0 || c.L1L2BusBytes > 1<<16 {
		return fmt.Errorf("mem: L1-L2 bus bandwidth %d outside 1..%d bytes/cycle", c.L1L2BusBytes, 1<<16)
	}
	if c.MemBusBytes <= 0 || c.MemBusBytes > 1<<16 {
		return fmt.Errorf("mem: memory bus bandwidth %d outside 1..%d bytes/cycle", c.MemBusBytes, 1<<16)
	}
	if c.DMSHRs <= 0 || c.DMSHRs > 1<<16 {
		return fmt.Errorf("mem: D-MSHR count %d outside 1..%d", c.DMSHRs, 1<<16)
	}
	if c.IMSHRs <= 0 || c.IMSHRs > 1<<16 {
		return fmt.Errorf("mem: I-MSHR count %d outside 1..%d", c.IMSHRs, 1<<16)
	}
	if c.TLBEntries <= 0 || c.TLBEntries > 1<<20 {
		return fmt.Errorf("mem: TLB entries %d outside 1..%d", c.TLBEntries, 1<<20)
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 || c.PageBytes > 1<<30 {
		return fmt.Errorf("mem: page size %d must be a power of two at most 1GB", c.PageBytes)
	}
	if c.TLBWalk > maxLatency {
		return fmt.Errorf("mem: TLB walk latency %d exceeds %d", c.TLBWalk, maxLatency)
	}
	return nil
}

// AccessResult describes one L1 access.
type AccessResult struct {
	Hit      bool   // tag hit with data present
	InFlight bool   // tag matched an outstanding fill (a miss, per the paper)
	L2Hit    bool   // for misses: block supplied by the L2
	Ready    uint64 // cycle at which the block is available in the L1
}

// Miss reports whether the access counts as a miss under the paper's
// definition (in-flight blocks count as misses).
func (r AccessResult) Miss() bool { return !r.Hit }

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg Config

	L1D, L1I, L2 *Cache
	L1L2, MemBus *Bus
	DMSHR, IMSHR *MSHRFile
	DTLB         *TLB

	l2pipe *Pipeline

	// Demand-stream statistics (prefetch traffic is counted by the
	// prefetcher itself).
	DemandL2Hits   uint64
	DemandL2Misses uint64
	PrefL2Hits     uint64
	PrefL2Misses   uint64
}

// New builds a hierarchy; it panics on invalid cache geometry.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:    cfg,
		L1D:    NewCache(cfg.L1D),
		L1I:    NewCache(cfg.L1I),
		L2:     NewCache(cfg.L2),
		L1L2:   NewBus(cfg.L1L2BusBytes),
		MemBus: NewBus(cfg.MemBusBytes),
		DMSHR:  NewMSHRFile(cfg.DMSHRs),
		IMSHR:  NewMSHRFile(cfg.IMSHRs),
		DTLB:   NewTLB(cfg.TLBEntries, cfg.PageBytes, cfg.TLBWalk),
		l2pipe: NewPipeline(cfg.L2Latency, cfg.L2PipeDepth),
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// fetchBlock moves one L1 block over the L1-L2 bus, consulting the L2
// and, on an L2 miss, main memory. It returns the cycle the block is
// available in the L1 and whether the L2 supplied it. demand tags the
// access for the L2 hit/miss statistics.
func (h *Hierarchy) fetchBlock(cycle, blockAddr uint64, blockBytes int, demand bool) (ready uint64, l2hit bool) {
	busStart, busDone := h.L1L2.Acquire(cycle, blockBytes)
	_, l2Done := h.l2pipe.Start(busStart)
	l2hit = h.L2.Access(blockAddr)
	if l2hit {
		if demand {
			h.DemandL2Hits++
		} else {
			h.PrefL2Hits++
		}
		// Data returns after the L2 pipeline and the block transfer.
		ready = l2Done + (busDone - busStart)
		return ready, true
	}
	if demand {
		h.DemandL2Misses++
	} else {
		h.PrefL2Misses++
	}
	// Fill the L2 from memory, then forward to the L1.
	memStart, memDone := h.MemBus.Acquire(l2Done, h.L2.Config().BlockBytes)
	_ = memStart
	fillReady := memDone + h.cfg.MemLatency
	h.L2.Insert(h.L2.BlockAddr(blockAddr))
	ready = fillReady + (busDone - busStart)
	return ready, false
}

// AccessD performs a demand load/store lookup in the L1 data cache at
// cycle. On a miss it allocates an MSHR, arbitrates for the L1-L2 bus
// and fills the line. The caller is responsible for stream-buffer
// lookups (done in parallel at the CPU level) and for TLB translation.
func (h *Hierarchy) AccessD(cycle, addr uint64) AccessResult {
	if hit, inflight, ready := h.ProbeD(cycle, addr); hit || inflight {
		return AccessResult{Hit: hit, InFlight: inflight, Ready: ready}
	}
	return h.MissFillD(cycle, addr)
}

// ProbeD performs the L1D tag lookup at cycle without starting a fill:
// hit means the data is present (ready == cycle); inflight means the
// tag matched an outstanding MSHR (ready is the fill-completion cycle).
// The CPU uses ProbeD so it can consult the stream buffers before
// committing to the miss path.
func (h *Hierarchy) ProbeD(cycle, addr uint64) (hit, inflight bool, ready uint64) {
	block := h.L1D.BlockAddr(addr)
	if !h.L1D.Access(addr) {
		return false, false, 0
	}
	if r, ok := h.DMSHR.Lookup(cycle, block); ok {
		return false, true, r
	}
	return true, false, cycle
}

// MissFillD runs the demand-miss path for addr: MSHR reservation, bus
// arbitration, L2/memory access, and L1 fill.
func (h *Hierarchy) MissFillD(cycle, addr uint64) AccessResult {
	block := h.L1D.BlockAddr(addr)
	stall := h.DMSHR.ReserveStall(cycle)
	ready, l2hit := h.fetchBlock(cycle+stall, block, h.L1D.Config().BlockBytes, true)
	h.DMSHR.Install(block, ready)
	h.L1D.Insert(block)
	return AccessResult{L2Hit: l2hit, Ready: ready}
}

// AccessI performs an instruction-fetch lookup in the L1 instruction
// cache, sharing the L1-L2 bus with data traffic.
func (h *Hierarchy) AccessI(cycle, addr uint64) AccessResult {
	block := h.L1I.BlockAddr(addr)
	if h.L1I.Access(addr) {
		if ready, ok := h.IMSHR.Lookup(cycle, block); ok {
			return AccessResult{InFlight: true, Ready: ready}
		}
		return AccessResult{Hit: true, Ready: cycle}
	}
	stall := h.IMSHR.ReserveStall(cycle)
	ready, l2hit := h.fetchBlock(cycle+stall, block, h.L1I.Config().BlockBytes, true)
	h.IMSHR.Install(block, ready)
	h.L1I.Insert(block)
	return AccessResult{L2Hit: l2hit, Ready: ready}
}

// Prefetch issues a stream-buffer prefetch of the L1 block containing
// addr. The caller must have verified the L1-L2 bus is free at the
// start of the cycle (the paper's gating condition). The block is
// delivered to the stream buffer, not the L1; it is inserted into the
// L2 on the fill path. Prefetch translates the (virtual) address
// through the data TLB, performing TLB prefetching as in §4.5.
func (h *Hierarchy) Prefetch(cycle, addr uint64) (ready uint64, l2hit bool) {
	penalty := h.DTLB.Translate(addr)
	block := h.L1D.BlockAddr(addr)
	return h.fetchBlock(cycle+penalty, block, h.L1D.Config().BlockBytes, false)
}

// BusFreeAt reports whether the L1-L2 bus is idle at the start of
// cycle (the gating condition for stream-buffer prefetches).
func (h *Hierarchy) BusFreeAt(cycle uint64) bool { return h.L1L2.FreeAt(cycle) }

// NextBusFree returns the first cycle >= cycle at which the L1-L2 bus
// is idle. The stream-buffer engine's batched TickRange jumps directly
// to it instead of polling BusFreeAt cycle by cycle.
func (h *Hierarchy) NextBusFree(cycle uint64) uint64 {
	if b := h.L1L2.BusyUntil(); b > cycle {
		return b
	}
	return cycle
}

// NextMSHRReady returns the completion cycle of the earliest
// outstanding L1 fill (data or instruction) still in flight after
// cycle, and whether one exists. Together with NextBusFree it is the
// hierarchy's event horizon: the earliest future cycle at which its
// state can change without a new request arriving. The CPU's jump
// computation does not need it — every MSHR fill's architectural
// consequence is already pinned in a ROB completion cycle or the
// fetch-resume cycle — but it is exposed for debugging skip bugs and
// for the invariant tests that cross-check skipped ranges.
func (h *Hierarchy) NextMSHRReady(cycle uint64) (ready uint64, ok bool) {
	d, dok := h.DMSHR.EarliestReady(cycle)
	i, iok := h.IMSHR.EarliestReady(cycle)
	switch {
	case dok && iok:
		if i < d {
			return i, true
		}
		return d, true
	case dok:
		return d, true
	case iok:
		return i, true
	}
	return 0, false
}

// PrefetchInPage is Prefetch without the TLB access, for stream
// buffers that cached the page translation (§4.5 of the paper).
func (h *Hierarchy) PrefetchInPage(cycle, addr uint64) (ready uint64, l2hit bool) {
	block := h.L1D.BlockAddr(addr)
	return h.fetchBlock(cycle, block, h.L1D.Config().BlockBytes, false)
}

// FillL1D installs a block into the L1 data cache (the stream-buffer
// hit path: the buffered block moves into the cache on a lookup hit).
func (h *Hierarchy) FillL1D(addr uint64) {
	h.L1D.Insert(h.L1D.BlockAddr(addr))
}

// PromoteToMSHR hands an in-flight stream-buffer block to the L1D MSHRs
// (tag hit in the buffer, data not ready: "the tag is moved into a data
// cache MSHR, and the data cache handles the block when it comes back").
func (h *Hierarchy) PromoteToMSHR(cycle, addr, ready uint64) {
	block := h.L1D.BlockAddr(addr)
	stall := h.DMSHR.ReserveStall(cycle)
	_ = stall // promotion does not re-issue a request; stall is immaterial
	h.DMSHR.Install(block, ready)
	h.L1D.Insert(block)
}
