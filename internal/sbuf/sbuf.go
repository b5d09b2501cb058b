// Package sbuf implements stream buffers: Jouppi's FIFO prefetch
// buffers generalized with the fully-associative lookup of Farkas et
// al. and the paper's predictor-directed prediction engine, allocation
// filters (two-miss and confidence-based) and prefetch/prediction
// schedulers (round-robin and priority-counter).
//
// The Engine here is policy-generic: directing it with the PC-stride
// predictor reproduces the paper's baseline ("PC-stride stream
// buffers"), directing it with the SFM predictor produces the paper's
// contribution (predictor-directed stream buffers; see internal/core),
// and directing it with the sequential predictor reproduces Jouppi's
// original design.
package sbuf

import (
	"fmt"

	"repro/internal/predict"
)

// AllocPolicy selects the stream-buffer allocation filter (§4.3).
type AllocPolicy int

const (
	// AllocAlways allocates on every miss (Jouppi's original policy).
	AllocAlways AllocPolicy = iota
	// AllocTwoMiss is the generalized two-miss filter: the load's last
	// two misses must both have been predictable.
	AllocTwoMiss
	// AllocConfidence admits loads whose accuracy confidence reaches
	// the threshold and only replaces buffers of no higher priority.
	AllocConfidence
)

// String names the policy for stats output.
func (p AllocPolicy) String() string {
	switch p {
	case AllocAlways:
		return "always"
	case AllocTwoMiss:
		return "2miss"
	case AllocConfidence:
		return "confalloc"
	}
	return "alloc(?)"
}

// SchedPolicy selects how buffers compete for the single predictor
// port and the L1-L2 bus (§4.4).
type SchedPolicy int

const (
	// SchedRoundRobin gives each buffer an equal turn.
	SchedRoundRobin SchedPolicy = iota
	// SchedPriority serves the highest priority counter first, LRU
	// breaking ties.
	SchedPriority
)

// String names the policy for stats output.
func (p SchedPolicy) String() string {
	if p == SchedPriority {
		return "priority"
	}
	return "rr"
}

// Config sizes and parameterizes an Engine. Defaults (DefaultConfig)
// follow the paper: 8 buffers x 4 entries, confidence threshold 1,
// priority saturating at 12, +2 per hit, aging every 10 misses.
type Config struct {
	NumBuffers       int
	EntriesPerBuffer int
	BlockBytes       int

	Alloc         AllocPolicy
	Sched         SchedPolicy
	ConfThreshold int // minimum accuracy confidence for AllocConfidence
	PriorityMax   int // saturation of the per-buffer priority counter
	HitIncrement  int // priority bump on a stream-buffer hit
	AgingPeriod   int // allocation requests between priority decays

	// NonOverlapCheck drops predictions already resident in any stream
	// buffer (Farkas et al.); the paper models it and so do we.
	// Disabling it is an ablation.
	NonOverlapCheck bool

	// CacheTLBInBuffer stores the current page translation with each
	// stream buffer so a TLB lookup is only performed when the next
	// prefetch address leaves the page — the optimization §4.5 of the
	// paper suggests. Requires a Fetcher that also implements
	// InPageFetcher.
	CacheTLBInBuffer bool
	// PageBytes is the translation granularity for CacheTLBInBuffer.
	PageBytes int
}

// DefaultConfig returns the paper's stream-buffer parameters.
func DefaultConfig() Config {
	return Config{
		NumBuffers:       8,
		EntriesPerBuffer: 4,
		BlockBytes:       32,
		Alloc:            AllocConfidence,
		Sched:            SchedPriority,
		ConfThreshold:    1,
		PriorityMax:      12,
		HitIncrement:     2,
		AgingPeriod:      10,
		NonOverlapCheck:  true,
		PageBytes:        4096,
	}
}

// Validate reports whether the configuration can build an Engine
// without panicking: positive buffer geometry within sane bounds,
// recognized policies, non-negative counter parameters, and — when
// the per-buffer TLB cache is enabled — a power-of-two page size.
func (c Config) Validate() error {
	const maxGeom = 1 << 12
	if c.NumBuffers <= 0 || c.NumBuffers > maxGeom {
		return fmt.Errorf("sbuf: buffer count %d outside 1..%d", c.NumBuffers, maxGeom)
	}
	if c.EntriesPerBuffer <= 0 || c.EntriesPerBuffer > maxGeom {
		return fmt.Errorf("sbuf: entries per buffer %d outside 1..%d", c.EntriesPerBuffer, maxGeom)
	}
	if c.BlockBytes <= 0 || c.BlockBytes > 1<<20 {
		return fmt.Errorf("sbuf: block size %d outside 1..%d", c.BlockBytes, 1<<20)
	}
	switch c.Alloc {
	case AllocAlways, AllocTwoMiss, AllocConfidence:
	default:
		return fmt.Errorf("sbuf: unknown allocation policy %d", int(c.Alloc))
	}
	switch c.Sched {
	case SchedRoundRobin, SchedPriority:
	default:
		return fmt.Errorf("sbuf: unknown scheduling policy %d", int(c.Sched))
	}
	if c.ConfThreshold < 0 || c.PriorityMax < 0 || c.HitIncrement < 0 || c.AgingPeriod < 0 {
		return fmt.Errorf("sbuf: negative counter parameter (conf=%d prioMax=%d hitInc=%d aging=%d)",
			c.ConfThreshold, c.PriorityMax, c.HitIncrement, c.AgingPeriod)
	}
	if c.CacheTLBInBuffer && (c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0) {
		return fmt.Errorf("sbuf: per-buffer TLB cache needs a power-of-two page size, got %d", c.PageBytes)
	}
	return nil
}

// Fetcher is the slice of the memory system a stream buffer engine
// needs: issuing prefetches and observing L1-L2 bus availability.
// As in the paper, the buffers are probed in parallel with the L1 and
// a prefetch never checks the L1 first. *mem.Hierarchy satisfies it.
type Fetcher interface {
	// Prefetch requests the block containing addr; it returns the
	// cycle the data arrives at the buffer and whether the L2 had it.
	Prefetch(cycle, addr uint64) (ready uint64, l2hit bool)
	// BusFreeAt reports whether the L1-L2 bus is idle at the start of
	// cycle — the paper's gating condition for issuing a prefetch.
	BusFreeAt(cycle uint64) bool
}

// InPageFetcher is optionally implemented by Fetchers that can issue a
// prefetch without a TLB lookup, for buffers that cached the page
// translation (§4.5). *mem.Hierarchy implements it.
type InPageFetcher interface {
	// PrefetchInPage is Prefetch minus the address translation.
	PrefetchInPage(cycle, addr uint64) (ready uint64, l2hit bool)
}

// LookupKind classifies a stream-buffer lookup.
type LookupKind int

const (
	// LookupMiss: no buffer holds the block.
	LookupMiss LookupKind = iota
	// LookupHitReady: a buffer holds the block with data present; the
	// block moves into the L1 data cache.
	LookupHitReady
	// LookupHitPending: a buffer holds the block but the prefetch is
	// still in flight; the tag moves to a data-cache MSHR.
	LookupHitPending
	// LookupHitUnfetched: a buffer predicted the block but no prefetch
	// request has been issued yet (the bus never freed). The load must
	// fetch the block itself; the entry is freed and no new stream is
	// allocated (the right stream already exists).
	LookupHitUnfetched
)

// Prefetcher is the CPU-facing contract. Engine implements it; Null is
// the no-prefetching baseline.
type Prefetcher interface {
	// Lookup probes all buffers in parallel with the L1 lookup.
	Lookup(cycle, addr uint64) (LookupKind, uint64)
	// AllocationRequest reports a load that missed in the L1 and all
	// buffers; the engine may allocate a stream for it.
	AllocationRequest(cycle, pc, addr uint64)
	// Train is the write-back predictor update for an L1-missing load.
	Train(pc, addr uint64)
	// Tick advances one cycle: at most one prediction (single predictor
	// port) and at most one prefetch (single L1-L2 bus).
	Tick(cycle uint64)
	// Stats returns cumulative counters.
	Stats() Stats
}

// Stats are the engine's cumulative counters.
type Stats struct {
	Lookups            uint64
	HitsReady          uint64
	HitsPending        uint64
	HitsUnfetched      uint64
	AllocationRequests uint64
	Allocations        uint64
	AllocationsDenied  uint64
	Predictions        uint64
	PredictionsDropped uint64 // overlap-check drops
	PrefetchesIssued   uint64
	PrefetchesUsed     uint64
	PrefetchL2Hits     uint64
	TLBSkipped         uint64 // prefetch TLB lookups avoided (§4.5)
}

// Accuracy returns used/issued prefetches (the paper's Figure 6 metric).
func (s Stats) Accuracy() float64 {
	if s.PrefetchesIssued == 0 {
		return 0
	}
	return float64(s.PrefetchesUsed) / float64(s.PrefetchesIssued)
}

// Null is the no-prefetch baseline.
type Null struct{}

// Lookup always misses.
func (Null) Lookup(cycle, addr uint64) (LookupKind, uint64) { return LookupMiss, 0 }

// AllocationRequest is a no-op.
func (Null) AllocationRequest(cycle, pc, addr uint64) {}

// Train is a no-op.
func (Null) Train(pc, addr uint64) {}

// Tick is a no-op.
func (Null) Tick(cycle uint64) {}

// TickRange is a no-op (the batched form of Tick the event-driven
// cycle loop uses).
func (Null) TickRange(from, to uint64) {}

// Stats returns zeros.
func (Null) Stats() Stats { return Stats{} }

var _ Prefetcher = Null{}
var _ Prefetcher = (*Engine)(nil)

type entry struct {
	block      uint64
	valid      bool // holds a prediction
	prefetched bool // request issued
	ready      uint64
	lastUse    uint64
}

type buffer struct {
	allocated bool
	stream    predict.Stream
	priority  predict.SatCounter
	entries   []entry
	lastUse   uint64 // LRU among buffers
	predDone  bool   // all entries hold predictions; wait for a hit
	tlbPage   uint64 // cached page translation (CacheTLBInBuffer)
	tlbValid  bool
}

// Engine is a bank of stream buffers directed by an address predictor.
type Engine struct {
	cfg   Config
	pred  predict.Predictor
	fetch Fetcher
	// busH is fetch's bus-horizon fast path (nil when unsupported):
	// TickRange uses it to jump straight to the next bus-free cycle
	// instead of polling BusFreeAt cycle by cycle.
	busH interface {
		NextBusFree(cycle uint64) uint64
	}

	bufs  []buffer
	clock uint64 // LRU timestamp source

	orderBuf []int // scratch for order(): Tick runs every cycle
	// prioDirty marks the cached priority order stale. Scheduling
	// order under SchedPriority depends only on per-buffer priority
	// counters and buffer LRU stamps, which change on lookup hits,
	// allocations and aging — never inside predictOne/prefetchOne — so
	// the sort is redone only after one of those events instead of
	// twice per cycle.
	prioDirty bool

	// livePred counts buffers that can use the predictor port
	// (allocated and not predDone); unprefetched counts entries
	// holding a prediction whose prefetch has not been issued. They
	// exist so the per-cycle Tick is a counter test, not a scan, when
	// the engine is quiescent.
	livePred     int
	unprefetched int

	rrPredict  int // round-robin pointers
	rrPrefetch int

	agingCount int

	stats Stats
}

// NewEngine builds an engine directing prefetches with pred and
// issuing them through fetch; it panics if cfg.Validate rejects the
// configuration.
func NewEngine(cfg Config, pred predict.Predictor, fetch Fetcher) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{cfg: cfg, pred: pred, fetch: fetch,
		bufs:      make([]buffer, cfg.NumBuffers),
		orderBuf:  make([]int, 0, cfg.NumBuffers),
		prioDirty: true}
	e.busH, _ = fetch.(interface {
		NextBusFree(cycle uint64) uint64
	})
	for i := range e.bufs {
		e.bufs[i].entries = make([]entry, cfg.EntriesPerBuffer)
		e.bufs[i].priority = predict.NewSatCounter(0, cfg.PriorityMax)
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns cumulative counters.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) block(addr uint64) uint64 {
	return addr / uint64(e.cfg.BlockBytes) * uint64(e.cfg.BlockBytes)
}

// resident reports whether any buffer entry holds block.
func (e *Engine) resident(block uint64) bool {
	for i := range e.bufs {
		b := &e.bufs[i]
		if !b.allocated {
			continue
		}
		for j := range b.entries {
			if b.entries[j].valid && b.entries[j].block == block {
				return true
			}
		}
	}
	return false
}

// Lookup probes every buffer in parallel (fully-associative lookup,
// Farkas et al.). On a hit the entry is freed for a new prediction and
// prefetch, and the owning buffer's priority counter is credited.
func (e *Engine) Lookup(cycle, addr uint64) (LookupKind, uint64) {
	e.stats.Lookups++
	block := e.block(addr)
	for i := range e.bufs {
		b := &e.bufs[i]
		if !b.allocated {
			continue
		}
		for j := range b.entries {
			en := &b.entries[j]
			if !en.valid || en.block != block {
				continue
			}
			var kind LookupKind
			switch {
			case !en.prefetched:
				// Predicted but never issued: the demand access must
				// fetch the block itself.
				kind = LookupHitUnfetched
				e.stats.HitsUnfetched++
			case en.ready <= cycle:
				kind = LookupHitReady
				e.stats.HitsReady++
			default:
				kind = LookupHitPending
				e.stats.HitsPending++
			}
			ready := en.ready
			if en.prefetched {
				e.stats.PrefetchesUsed++
			} else {
				e.unprefetched--
			}
			// Free the entry; the stream continues predicting.
			*en = entry{}
			if b.predDone {
				b.predDone = false
				e.livePred++
			}
			e.clock++
			b.lastUse = e.clock
			b.priority.Add(e.cfg.HitIncrement)
			e.prioDirty = true
			return kind, ready
		}
	}
	return LookupMiss, 0
}

// AllocationRequest handles a load that missed in the L1 data cache
// and in every stream buffer. Subject to the allocation filter, a
// buffer is (re)allocated for the load's stream. Every request also
// advances the aging clock that decays priority counters.
func (e *Engine) AllocationRequest(cycle, pc, addr uint64) {
	e.stats.AllocationRequests++
	e.age()

	conf := e.pred.Confidence(pc)
	switch e.cfg.Alloc {
	case AllocAlways:
		// No filter.
	case AllocTwoMiss:
		if !e.pred.TwoMissOK(pc) {
			e.stats.AllocationsDenied++
			return
		}
	case AllocConfidence:
		if conf < e.cfg.ConfThreshold {
			e.stats.AllocationsDenied++
			return
		}
	}

	victim := e.chooseVictim(conf)
	if victim < 0 {
		e.stats.AllocationsDenied++
		return
	}

	b := &e.bufs[victim]
	if !b.allocated || b.predDone {
		e.livePred++
	}
	e.clock++
	*b = buffer{
		allocated: true,
		stream:    e.pred.InitStream(pc, addr),
		priority:  predict.NewSatCounter(0, e.cfg.PriorityMax),
		entries:   b.entries,
		lastUse:   e.clock,
	}
	for i := range b.entries {
		if b.entries[i].valid && !b.entries[i].prefetched {
			e.unprefetched--
		}
		b.entries[i] = entry{}
	}
	e.prioDirty = true
	// Copy the accuracy confidence into the priority counter (§4.4),
	// cutting the contention time of loads proven predictable.
	b.priority.Set(conf)
	e.stats.Allocations++
}

// age decrements every priority counter once per AgingPeriod
// allocation requests, letting stale high-confidence buffers be
// reclaimed.
func (e *Engine) age() {
	if e.cfg.AgingPeriod <= 0 {
		return
	}
	e.agingCount++
	if e.agingCount < e.cfg.AgingPeriod {
		return
	}
	e.agingCount = 0
	for i := range e.bufs {
		e.bufs[i].priority.Dec()
	}
	e.prioDirty = true
}

// chooseVictim picks the buffer to replace, or -1 if the request loses
// to every current buffer. Unallocated buffers are always preferred.
// The two-miss and always policies replace the least recently used
// buffer (prior work's rule). Under confidence allocation a buffer is
// only replaceable when its priority does not exceed the requesting
// load's accuracy confidence; among replaceable buffers the lowest
// priority loses first, LRU breaking ties — so buffers that keep
// earning hits are never stolen by merely-eligible loads.
func (e *Engine) chooseVictim(conf int) int {
	victim := -1
	for i := range e.bufs {
		b := &e.bufs[i]
		if !b.allocated {
			return i
		}
		if e.cfg.Alloc != AllocConfidence {
			if victim < 0 || b.lastUse < e.bufs[victim].lastUse {
				victim = i
			}
			continue
		}
		if b.priority.V > conf {
			continue
		}
		if victim < 0 {
			victim = i
			continue
		}
		v := &e.bufs[victim]
		if b.priority.V < v.priority.V ||
			(b.priority.V == v.priority.V && b.lastUse < v.lastUse) {
			victim = i
		}
	}
	return victim
}

// Train forwards the write-back update to the shared predictor.
func (e *Engine) Train(pc, addr uint64) { e.pred.Train(pc, addr) }

// Tick performs one cycle of engine work: one prediction through the
// shared predictor port and, if the L1-L2 bus is free at the start of
// the cycle, one prefetch.
func (e *Engine) Tick(cycle uint64) {
	if e.livePred == 0 && e.unprefetched == 0 {
		// Quiescent: no buffer may predict and nothing awaits the bus.
		// Only Lookup and AllocationRequest can change that, and
		// neither runs inside Tick.
		return
	}
	e.predictOne(cycle)
	if e.unprefetched > 0 && e.fetch.BusFreeAt(cycle) {
		e.prefetchOne(cycle)
	}
}

// predQuiescent reports that the prediction port is dead: every buffer
// is either unallocated or has declared predDone (all entries hold
// predictions), so predictOne is a strict no-op at any cycle until an
// external call (Lookup, AllocationRequest) changes buffer state.
func (e *Engine) predQuiescent() bool { return e.livePred == 0 }

// anyUnprefetched reports whether some entry still holds a prediction
// whose prefetch has not been issued (work for prefetchOne).
func (e *Engine) anyUnprefetched() bool { return e.unprefetched > 0 }

// TickRange advances the engine across the closed cycle range
// [from, to], with state mutations exactly equivalent to calling Tick
// once per cycle in order. The event-driven cycle loop uses it to
// replay the engine's per-cycle work over skipped stall cycles without
// re-entering the core: while the prediction port is live the range is
// replayed in a tight per-cycle loop (stream generation can depend on
// every predictor probe), and once the engine is prediction-quiescent
// it either returns immediately (nothing pending at all — a strict
// no-op for the rest of the range) or jumps straight to each bus-free
// cycle and issues the pending prefetches there.
func (e *Engine) TickRange(from, to uint64) {
	for cy := from; cy <= to; {
		if !e.predQuiescent() {
			e.Tick(cy)
			cy++
			continue
		}
		if !e.anyUnprefetched() {
			// Fully quiescent: every remaining Tick in the range is a
			// no-op (only the CPU's Lookup/AllocationRequest calls can
			// change engine state, and none happen inside a skipped
			// range).
			return
		}
		if !e.fetch.BusFreeAt(cy) {
			if e.busH == nil {
				cy++ // poll cycle by cycle; correct for any Fetcher
				continue
			}
			nf := e.busH.NextBusFree(cy)
			if nf > to {
				return
			}
			cy = nf
		}
		// predictOne is a no-op while prediction-quiescent, so Tick at
		// cy reduces to this single prefetch. A prefetch can re-open
		// the prediction port (the L1-residence ablation clears
		// predDone), so the loop re-checks quiescence each iteration.
		e.prefetchOne(cy)
		cy++
	}
}

// order returns buffer indices in scheduling order for the given
// round-robin pointer. The returned slice aliases the engine's scratch
// buffer and is valid until the next order call.
func (e *Engine) order(rr int) []int {
	n := len(e.bufs)
	if e.cfg.Sched == SchedRoundRobin {
		idx := e.orderBuf[:0]
		for i := 0; i < n; i++ {
			if rr++; rr == n {
				rr = 0
			}
			idx = append(idx, rr)
		}
		return idx
	}
	// Priority order: highest counter first, least-recently-used
	// breaking ties (the paper uses LRU among equal-confidence
	// buffers). The keys change only on hits, allocations and aging
	// (prioDirty), so the sorted order is cached between those events.
	if !e.prioDirty {
		return e.orderBuf
	}
	idx := e.orderBuf[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := &e.bufs[idx[j]], &e.bufs[idx[j-1]]
			if a.priority.V > b.priority.V ||
				(a.priority.V == b.priority.V && a.lastUse < b.lastUse) {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			} else {
				break
			}
		}
	}
	e.orderBuf = idx
	e.prioDirty = false
	return idx
}

// predictOne lets one buffer use the predictor port.
func (e *Engine) predictOne(cycle uint64) {
	for _, i := range e.order(e.rrPredict) {
		b := &e.bufs[i]
		if !b.allocated || b.predDone {
			continue
		}
		slot := e.freeEntry(b)
		if slot < 0 {
			// All entries hold predictions: no more predictions for
			// this buffer until a lookup hit clears one (§4.1).
			b.predDone = true
			e.livePred--
			continue
		}
		if e.cfg.Sched == SchedRoundRobin {
			e.rrPredict = i
		}
		addr, ok := e.pred.NextAddr(&b.stream)
		e.stats.Predictions++
		if !ok {
			return
		}
		block := e.block(addr)
		if e.cfg.NonOverlapCheck && e.resident(block) {
			// Already being followed by some buffer: drop, but the
			// stream history has advanced (no useful prediction this
			// cycle).
			e.stats.PredictionsDropped++
			return
		}
		e.clock++
		b.entries[slot] = entry{block: block, valid: true, lastUse: e.clock}
		e.unprefetched++
		return
	}
}

// freeEntry returns the index of an invalid entry, preferring the
// least recently used; -1 if all are valid.
func (e *Engine) freeEntry(b *buffer) int {
	slot := -1
	for i := range b.entries {
		if b.entries[i].valid {
			continue
		}
		if slot < 0 || b.entries[i].lastUse < b.entries[slot].lastUse {
			slot = i
		}
	}
	return slot
}

// prefetchOne issues one prefetch from the scheduling-preferred buffer
// holding a valid, un-prefetched prediction.
func (e *Engine) prefetchOne(cycle uint64) {
	for _, i := range e.order(e.rrPrefetch) {
		b := &e.bufs[i]
		if !b.allocated {
			continue
		}
		slot := -1
		for j := range b.entries {
			en := &b.entries[j]
			if en.valid && !en.prefetched {
				if slot < 0 || en.lastUse < b.entries[slot].lastUse {
					slot = j
				}
			}
		}
		if slot < 0 {
			continue
		}
		if e.cfg.Sched == SchedRoundRobin {
			e.rrPrefetch = i
		}
		en := &b.entries[slot]
		ready, l2hit := e.issuePrefetch(cycle, b, en.block)
		en.prefetched = true
		en.ready = ready
		e.unprefetched--
		e.stats.PrefetchesIssued++
		if l2hit {
			e.stats.PrefetchL2Hits++
		}
		return
	}
}

// issuePrefetch sends the block to the memory system, skipping the
// TLB when the buffer's cached translation covers the block's page
// (§4.5: a lookup is only needed when the prefetch address leaves the
// current page).
func (e *Engine) issuePrefetch(cycle uint64, b *buffer, block uint64) (uint64, bool) {
	ipf, ok := e.fetch.(InPageFetcher)
	if !e.cfg.CacheTLBInBuffer || !ok || e.cfg.PageBytes <= 0 {
		return e.fetch.Prefetch(cycle, block)
	}
	page := block / uint64(e.cfg.PageBytes)
	if b.tlbValid && b.tlbPage == page {
		e.stats.TLBSkipped++
		return ipf.PrefetchInPage(cycle, block)
	}
	b.tlbPage = page
	b.tlbValid = true
	return e.fetch.Prefetch(cycle, block)
}

// BufferStates returns a snapshot of per-buffer occupancy for
// debugging and the examples (allocated, priority, valid entries).
type BufferState struct {
	Allocated    bool
	PC           uint64
	LastAddr     uint64
	Stride       int64
	Priority     int
	ValidEntries int
	InFlight     int
}

// Snapshot reports the current state of every buffer.
func (e *Engine) Snapshot(cycle uint64) []BufferState {
	out := make([]BufferState, len(e.bufs))
	for i := range e.bufs {
		b := &e.bufs[i]
		st := BufferState{
			Allocated: b.allocated,
			PC:        b.stream.PC,
			LastAddr:  b.stream.LastAddr,
			Stride:    b.stream.Stride,
			Priority:  b.priority.V,
		}
		for j := range b.entries {
			if b.entries[j].valid {
				st.ValidEntries++
				if b.entries[j].prefetched && b.entries[j].ready > cycle {
					st.InFlight++
				}
			}
		}
		out[i] = st
	}
	return out
}
