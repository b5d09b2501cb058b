package cpu

import (
	"math"
	"math/bits"

	"repro/internal/isa"
)

// Event-driven cycle skipping.
//
// RunChecked's event mode jumps the clock over cycles in which no
// pipeline stage can change observable state. The jump target is a
// sound lower bound on the next cycle at which anything could happen:
// every candidate below is derived from state that is frozen while the
// machine makes no progress (ROB completion cycles, scoreboard-snapshot
// dependency ready cycles, functional-unit busy-until cycles, fetch
// queue availability, the front-end resume cycle), so jumping to the
// minimum can never pass over a cycle where the cycle-accurate loop
// would have acted. Landing on a candidate that turns out not to fire
// (for example an entry whose operands are ready but whose port is
// taken at the landing cycle by an older instruction) is harmless: the
// stages run, possibly doing nothing, and the next bound is computed
// from there.
//
// The prefetch engine is not a candidate source: its per-cycle work
// (predictions and prefetches) mutates only stream-buffer, L2, bus and
// TLB state, none of which gates a pipeline stage — the CPU reads that
// state only inside load/store issue, which happens at event cycles.
// Its ticks are replayed for every skipped cycle (batched through
// TickRange when the prefetcher supports it) before the landing cycle
// executes, so bus and cache state at every event cycle is exactly what
// the cycle-accurate loop would have produced.

// neverCycle marks an event source with nothing scheduled.
const neverCycle = math.MaxUint64

// rangeTicker is implemented by prefetchers (sbuf.Engine, sbuf.Null)
// that can advance many cycles in one call; prefetchers without it are
// ticked cycle by cycle, which keeps any Prefetcher implementation
// correct under event mode.
type rangeTicker interface {
	// TickRange must be exactly equivalent to calling Tick once for
	// every cycle in [from, to], in order.
	TickRange(from, to uint64)
}

// tickPrefetcher replays the prefetcher's per-cycle work for every
// cycle in [from, to].
func (c *CPU) tickPrefetcher(from, to uint64) {
	if c.rt != nil {
		c.rt.TickRange(from, to)
		return
	}
	for cy := from; cy <= to; cy++ {
		c.pf.Tick(cy)
	}
}

// issuePool returns the functional-unit pool the entry in slot idx
// competes for, mirroring the selection in issue().
func (c *CPU) issuePool(idx int) *fuPool {
	flags := c.robFlags[idx]
	switch {
	case flags&fLoad != 0:
		return c.pools[isa.ClassLoad]
	case flags&fStore != 0:
		return c.pools[isa.ClassStore]
	}
	return c.pools[c.robClass[idx]]
}

// nextEventCycle returns a lower bound (> c.cycle) on the next cycle at
// which any pipeline stage can change observable state, or neverCycle
// when the machine is provably stuck (the caller's watchdog cap then
// bounds the jump). It must only be called after a cycle in which no
// stage made progress, and it never mutates the core.
func (c *CPU) nextEventCycle() uint64 {
	next := uint64(neverCycle)

	// Commit: the oldest instruction's completion.
	if c.robCount > 0 {
		h := c.robHead
		if c.robFlags[h]&fIssued != 0 && c.robDone[h] > c.cycle {
			next = c.robDone[h]
		}
	}

	// Issue: for every un-issued entry whose wake-up cycle is known,
	// the earliest cycle its operands are ready and a unit could be
	// free. Entries gated on another un-issued instruction (a producer,
	// or an older store under the disambiguation policy) contribute
	// nothing: the gating entry's own candidate wakes the machine
	// first. The minimum is order-free, so the bitmask is walked in
	// plain word order rather than age order.
	for wi, m := range c.wakeable {
		for m != 0 {
			idx := wi<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			t := c.robWake[idx]
			if c.robFlags[idx]&fLoad != 0 {
				switch c.cfg.Disambiguation {
				case DisNone:
					if c.minUnissuedStoreSeq < c.robSeq[idx] {
						continue
					}
				case DisPerfect:
					if conflict := c.loadConflict(idx); conflict >= 0 &&
						c.robFlags[conflict]&fIssued == 0 {
						continue
					}
				}
			}
			if f := c.issuePool(idx).earliestFree(); f > t {
				t = f
			}
			if t <= c.cycle {
				// Operands and a unit look ready now yet nothing issued
				// this cycle (e.g. width races); do not skip.
				t = c.cycle + 1
			}
			if t < next {
				next = t
			}
		}
	}

	// Dispatch: the fetch-queue head becoming available, when the ROB
	// and LSQ have room. A full ROB/LSQ is gated on commit, which the
	// commit candidate covers.
	if c.fqLen > 0 && c.robCount < c.cfg.ROBSize {
		head := &c.fetchQ[c.fqHead]
		if !(head.d.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize) {
			t := head.availableAt
			if t <= c.cycle {
				t = c.cycle + 1
			}
			if t < next {
				next = t
			}
		}
	}

	// Fetch: the front end resuming after an I-miss refill or
	// misprediction penalty. A blocked front end (unresolved
	// mispredicted CTI) is gated on that CTI's issue, covered above; a
	// full fetch queue is gated on dispatch; a dry source never fetches
	// again.
	if !c.fetchBlocked && c.fqLen < c.cfg.FetchQueueSize && !c.srcDone {
		t := c.fetchResume
		if t <= c.cycle {
			t = c.cycle + 1
		}
		if t < next {
			next = t
		}
	}

	return next
}
