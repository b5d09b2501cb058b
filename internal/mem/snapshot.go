package mem

import "fmt"

// Warm-state snapshots for sampled simulation. A snapshot captures
// exactly the state that determines future hit/miss behaviour — tag
// arrays, LRU clocks, TLB residency — and nothing else: statistics
// counters are not part of a snapshot, so a restored structure starts
// with clean stats. Geometry is not captured either; a snapshot may
// only be applied to a structure built from the same configuration,
// and SetState validates the shapes to catch mismatches.

// CacheState is the replacement-relevant state of a Cache.
type CacheState struct {
	Clock uint64
	Lines []CacheLineState // sets*ways, row-major by set
}

// State returns a deep copy of the cache's tag array and LRU clock.
func (c *Cache) State() CacheState {
	var st CacheState
	c.StateInto(&st)
	return st
}

// StateInto copies the cache's tag array and LRU clock into st,
// reusing st's line buffer when it is large enough.
func (c *Cache) StateInto(st *CacheState) {
	st.Clock = c.clock
	st.Lines = append(st.Lines[:0], c.lines...)
}

// SetState overwrites the cache's tag array and LRU clock from a
// snapshot taken from an identically-configured cache. Statistics are
// left untouched.
func (c *Cache) SetState(st CacheState) error {
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("mem: cache %q: snapshot has %d lines, geometry wants %d",
			c.cfg.Name, len(st.Lines), len(c.lines))
	}
	copy(c.lines, st.Lines)
	c.clock = st.Clock
	return nil
}

// TLBState is the residency state of a TLB.
type TLBState struct {
	Clock   uint64
	Used    int
	MRU     int
	Pages   []uint64
	LastUse []uint64
}

// State returns a deep copy of the TLB's residency state.
func (t *TLB) State() TLBState {
	var st TLBState
	t.StateInto(&st)
	return st
}

// StateInto copies the TLB's residency state into st, reusing st's
// buffers when they are large enough.
func (t *TLB) StateInto(st *TLBState) {
	st.Clock, st.Used, st.MRU = t.clock, t.used, t.mru
	st.Pages = append(st.Pages[:0], t.pages...)
	st.LastUse = append(st.LastUse[:0], t.lastUse...)
}

// SetState overwrites the TLB's residency state from a snapshot taken
// from an identically-sized TLB and forgets every slot hint.
// Statistics are left untouched.
func (t *TLB) SetState(st TLBState) error {
	if len(st.Pages) != t.entries || len(st.LastUse) != t.entries {
		return fmt.Errorf("mem: TLB snapshot has %d/%d slots, geometry wants %d",
			len(st.Pages), len(st.LastUse), t.entries)
	}
	if st.Used < 0 || st.Used > t.entries || st.MRU < 0 || st.MRU >= t.entries {
		return fmt.Errorf("mem: TLB snapshot used=%d mru=%d out of range for %d entries",
			st.Used, st.MRU, t.entries)
	}
	copy(t.pages, st.Pages)
	copy(t.lastUse, st.LastUse)
	t.used = st.Used
	t.mru = st.MRU
	t.clock = st.Clock
	clear(t.hint)
	return nil
}

// WarmState is the scheme-independent warm state of a Hierarchy: every
// structure whose contents at an interval boundary affect the timing of
// the detailed interval that follows, excluding transient machinery
// (MSHRs, buses, the L2 pipeline) that drains within a few hundred
// cycles and is absorbed by the detailed warm-up prefix.
type WarmState struct {
	L1D  CacheState
	L1I  CacheState
	L2   CacheState
	DTLB TLBState
}

// WarmState snapshots the hierarchy's caches and DTLB.
func (h *Hierarchy) WarmState() WarmState {
	var ws WarmState
	h.WarmStateInto(&ws)
	return ws
}

// WarmStateInto snapshots the hierarchy's caches and DTLB into ws,
// reusing its buffers when they are large enough.
func (h *Hierarchy) WarmStateInto(ws *WarmState) {
	h.L1D.StateInto(&ws.L1D)
	h.L1I.StateInto(&ws.L1I)
	h.L2.StateInto(&ws.L2)
	h.DTLB.StateInto(&ws.DTLB)
}

// SetWarmState restores a snapshot taken from an identically-configured
// hierarchy. Statistics and transient machinery are left untouched.
func (h *Hierarchy) SetWarmState(ws WarmState) error {
	if err := h.L1D.SetState(ws.L1D); err != nil {
		return err
	}
	if err := h.L1I.SetState(ws.L1I); err != nil {
		return err
	}
	if err := h.L2.SetState(ws.L2); err != nil {
		return err
	}
	return h.DTLB.SetState(ws.DTLB)
}

// Rewarm leaves the hierarchy exactly as New(h.Config()) followed by
// SetWarmState(ws) would, reusing its storage: tag arrays and TLB come
// from the snapshot, every cache, TLB and demand statistic is zero,
// and the buses, MSHR files and L2 pipeline are idle. Sampled
// simulation rewarms one hierarchy per measurement interval instead of
// allocating a fresh one. On error the hierarchy is partly restored
// and must be rewarmed again before use.
func (h *Hierarchy) Rewarm(ws WarmState) error {
	if err := h.SetWarmState(ws); err != nil {
		return err
	}
	for _, c := range [...]*Cache{h.L1D, h.L1I, h.L2} {
		c.stats = CacheStats{}
	}
	h.DTLB.Accesses, h.DTLB.Misses = 0, 0
	for _, b := range [...]*Bus{h.L1L2, h.MemBus} {
		*b = Bus{bytesPerCycle: b.bytesPerCycle}
	}
	for _, f := range [...]*MSHRFile{h.DMSHR, h.IMSHR} {
		clear(f.slots)
		*f = MSHRFile{slots: f.slots}
	}
	*h.l2pipe = Pipeline{latency: h.l2pipe.latency, interval: h.l2pipe.interval}
	h.DemandL2Hits, h.DemandL2Misses, h.PrefL2Hits, h.PrefL2Misses = 0, 0, 0, 0
	return nil
}
