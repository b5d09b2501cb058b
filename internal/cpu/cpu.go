package cpu

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/sbuf"
	"repro/internal/vm"
)

// Source supplies the committed-path dynamic instruction stream in
// batches: the live MachineSource, a trace.Replay, or a SliceSource.
// The core drains it through its own fixed buffer, one Fill call per
// srcBatch records.
type Source interface {
	// Fill writes the next records into dst and returns how many it
	// wrote; 0 means the stream has ended.
	Fill(dst []vm.DynInst) int
}

// srcBatch is the number of records the core decodes per Fill: 8 KiB
// of records, which stays in the L1 data cache while fetch drains it.
const srcBatch = 256

// SliceSource serves instructions from a slice. It is a Stream, so it
// feeds both the core (in tests) and the functional executor
// (NewFunctional).
type SliceSource struct {
	Insts []vm.DynInst
	pos   int
}

// Fill implements Source.
func (s *SliceSource) Fill(dst []vm.DynInst) int {
	n := copy(dst, s.Insts[s.pos:])
	s.pos += n
	return n
}

// Seek repositions the source pos records in (clamped to its length).
func (s *SliceSource) Seek(pos uint64) { s.pos = int(min(pos, uint64(len(s.Insts)))) }

// Len returns the number of records in the slice.
func (s *SliceSource) Len() int { return len(s.Insts) }

// MachineSource adapts a vm.Machine to Source.
type MachineSource struct{ M *vm.Machine }

// Fill steps the machine into dst and returns how many records it
// wrote: len(dst), or fewer once the program has ended (HALT, the last
// record, included) or faulted.
func (s MachineSource) Fill(dst []vm.DynInst) int {
	for i := range dst {
		if s.M.StepInto(&dst[i]) != nil {
			return i
		}
	}
	return len(dst)
}

// Stats are the core's cumulative counters. Miss accounting follows
// the paper: an access to a block not (yet) usable from the L1 counts
// as a miss — in-flight fills and pending stream-buffer hits are
// misses; L1 hits and ready stream-buffer hits are hits.
type Stats struct {
	Cycles    uint64
	Committed uint64

	Loads  uint64
	Stores uint64

	DAccesses     uint64
	DMisses       uint64
	SBHitsReady   uint64
	SBHitsPending uint64

	LoadLatencySum uint64 // issue-to-completion, summed over loads

	Forwards uint64 // store-to-load forwards

	Branches    uint64
	Mispredicts uint64

	TrainEvents uint64

	// Event-driven cycle-skipping telemetry (zero in accurate mode).
	// Skipped cycles are simulated — they are included in Cycles and
	// are bit-identical to ticking through them — just never executed
	// one by one. The differential tests in internal/sim zero these
	// fields before comparing modes.
	SkippedCycles uint64 // cycles jumped over by the event-driven loop
	Jumps         uint64 // number of clock jumps taken
}

// AvgJumpLen returns the mean length of an event-driven clock jump.
func (s Stats) AvgJumpLen() float64 {
	if s.Jumps == 0 {
		return 0
	}
	return float64(s.SkippedCycles) / float64(s.Jumps)
}

// SkipFraction returns skipped cycles as a fraction of all cycles.
func (s Stats) SkipFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.SkippedCycles) / float64(s.Cycles)
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// DMissRate returns the paper-definition L1D miss rate.
func (s Stats) DMissRate() float64 {
	if s.DAccesses == 0 {
		return 0
	}
	return float64(s.DMisses) / float64(s.DAccesses)
}

// AvgLoadLatency returns the mean load latency in cycles.
func (s Stats) AvgLoadLatency() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadLatencySum) / float64(s.Loads)
}

// PctLoads returns loads as a fraction of committed instructions.
func (s Stats) PctLoads() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Loads) / float64(s.Committed)
}

// PctStores returns stores as a fraction of committed instructions.
func (s Stats) PctStores() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Stores) / float64(s.Committed)
}

const noDep = -1

// noDep32 terminates a producer link in the dependency arrays.
const noDep32 = int32(-1)

// wheelSpan is the wake-up wheel's horizon: its number of one-cycle
// buckets (see CPU.ready). A power of two, so cycle&(wheelSpan-1) is
// a cycle's bucket.
const wheelSpan = 256

// storeGrains is the number of hashed 8-byte granules the in-flight
// store counts cover; granules 2 KiB apart share a count.
const storeGrains = 256

// noStoreSeq is minUnissuedStoreSeq's value when every in-flight store
// has issued; any real sequence number is smaller.
const noStoreSeq = math.MaxUint64

// Per-entry status flags (robFlags). Packing the booleans of the old
// array-of-structs entry into one byte keeps the whole window's status
// in two cache lines.
const (
	fIssued uint8 = 1 << iota // instruction has issued; robDone is valid
	fLoad
	fStore
	fMispred   // mispredicted control transfer (front end waits on it)
	fTrainMiss // load missed the L1 tag array (trains the predictor)
	fForwarded // load was satisfied by store-to-load forwarding
	fRetired   // store has committed and left the store ring
)

type fetchItem struct {
	d           vm.DynInst
	mispredict  bool
	availableAt uint64
}

// CPU is the timing core.
//
// The reorder buffer is laid out as a struct of arrays: one fixed
// parallel array per field, all indexed by ROB slot, plus bitmasks over
// the slots. The issue scan walks the set bits of the ready mask with
// bits.TrailingZeros64 in age order from robHead; an entry joins that
// mask only once the clock reaches its wake-up cycle, so the scan never
// visits an entry that is not yet due.
type CPU struct {
	cfg  Config
	hier *mem.Hierarchy
	pf   sbuf.Prefetcher
	rt   rangeTicker // pf's batched-tick fast path, nil if unsupported
	src  Source
	bp   *Gshare

	hist *predict.DeltaHistogram // optional Figure-4 instrumentation

	// Reorder buffer, struct-of-arrays. Slot allocation is a ring:
	// [robHead, robHead+robCount) mod ROBSize.
	robD    []vm.DynInst // full dynamic instruction record
	robSeq  []uint64     // dynamic sequence number (recycle detection)
	robDone []uint64     // completion cycle (valid once fIssued)
	// robWake is the latest ready cycle over the entry's resolved
	// source operands; once robWaitN reaches zero it is the entry's
	// wake-up cycle. Wake-ups are pushed, not polled: a consumer
	// dispatching against an un-issued producer chains itself onto
	// that producer's waiter list (wakeHead/wakeNext), and the
	// producer's issue folds its completion cycle into every waiter's
	// robWake, publishing the waiter when its last outstanding link
	// resolves. Every producer issues before it can commit, so chains
	// always drain before a slot recycles.
	robWake  []uint64
	robWaitN []uint8 // outstanding producer links (0..2)
	robFlags []uint8 // fIssued | fLoad | fStore | ...
	robRd    []uint8 // destination register (isa.RegNone if none)
	robClass []uint8 // functional-unit class (cached isa.ClassOf)

	// Producer→consumer wake-up chains. wakeHead[p] is the first link
	// node of producer p's waiter list (noDep32 if empty); link node
	// ids encode consumer slot and operand as idx*2+op, threaded
	// through wakeNext.
	wakeHead []int32
	wakeNext []int32

	// Slot bitmasks (bit i = slot i), one word per 64 slots. wakeable
	// holds the un-issued slots whose wake-up cycle is known
	// (published: no outstanding producer link), which the event
	// loop's next-event bound walks; ready is its subset whose wake-up
	// cycle is at most drained, the cycle issue has advanced the wheel
	// to. The issue scan walks only ready, oldest-first from robHead.
	//
	// A published entry that is not yet ready waits in the wake-up
	// wheel when its wake-up cycle w is at most wheelSpan cycles past
	// drained: in bucket w%wheelSpan, the slot mask at
	// wheel[(w%wheelSpan)*len(ready):]. A later one waits in the late
	// set, whose smallest wake-up cycle is lateMin. Issue first moves
	// the buckets of every cycle up to the current one into ready,
	// then pulls the late entries that came within the horizon.
	wakeable []uint64
	ready    []uint64
	wheel    []uint64
	late     []uint64
	lateMin  uint64
	drained  uint64

	robHead  int
	robCount int
	lsqCount int
	seq      uint64

	lastWriter    [isa.NumRegs]int
	lastWriterSeq [isa.NumRegs]uint64

	// Register scoreboard: regKnown is a ready bitmask over the
	// unified 64-register name space — bit r set means the cycle at
	// which r's architectural value is (or becomes) available is
	// known and stored in regReadyAt[r]. Dispatch clears the writer's
	// bit; issue (writeback scheduling) sets it with the writer's
	// completion cycle. Consumers dispatching while the bit is set
	// capture the ready cycle directly and never touch the producer's
	// ROB entry.
	regKnown   uint64
	regReadyAt [isa.NumRegs]uint64

	// Store ring: the ROB slots of in-flight stores in age order
	// (stores dispatch and commit in order), with the fields the
	// disambiguation scan reads — sequence number and byte range —
	// mirrored into parallel arrays so the scan never touches the
	// 32-byte instruction records.
	storeQ     []int32
	storeSeqQ  []uint64
	storeLoQ   []uint64
	storeHiQ   []uint64
	storeHead  int
	storeCount int
	// storeGrain counts the in-flight stores touching each hashed
	// 8-byte granule. Two byte ranges can only overlap if they share a
	// granule, so a load whose granules all count zero overlaps no
	// in-flight store and skips the ring scan.
	storeGrain [storeGrains]uint32

	// Disambiguation fast paths. A load's youngest conflicting older
	// store is fixed at dispatch (dispatch is in order, so no older
	// store can appear later), cached in robConflict/robConflictSeq,
	// and invalidated by recycling (sequence mismatch) or retirement
	// (fRetired; in-order commit guarantees every still-older conflict
	// left the ring first). minUnissuedStoreSeq is the sequence number
	// of the oldest in-flight store that has not issued (noStoreSeq
	// when all have), making DisNone's "any older store un-issued"
	// gate one compare; minUnissuedStoreSlot is that store's ring slot,
	// valid while minUnissuedStoreSeq is not noStoreSeq.
	robConflict          []int32
	robConflictSeq       []uint64
	minUnissuedStoreSeq  uint64
	minUnissuedStoreSlot int

	// fetchQ is a fixed-capacity ring (head fqHead, length fqLen):
	// the queue drains from the front every cycle, and a ring avoids
	// both re-slicing losses and per-refill array allocations.
	fetchQ []fetchItem
	fqHead int
	fqLen  int

	// Batch supply: fetch drains srcBuf[srcPos:srcLen], refilling all
	// of srcBuf from src when it runs dry. New allocates srcBuf and
	// Reset keeps it.
	srcBuf         []vm.DynInst
	srcPos, srcLen int
	fetched        int // records consumed from src

	srcDone      bool
	fetchResume  uint64 // no fetch before this cycle
	fetchBlocked bool   // waiting on a mispredicted CTI to issue
	lastIBlock   uint64

	pools [isa.NumClasses]*fuPool
	fuOcc [isa.NumClasses]uint64 // per-issue unit occupancy: 1 if pipelined, else the latency

	cycle uint64
	stats Stats

	run runState
}

// runState is the resumable part of the run loop, kept on the CPU so
// Advance can pause at an instruction target and continue later with
// bit-identical behavior (psbsim -progress reports between such
// pauses).
type runState struct {
	started       bool
	eventDriven   bool
	watchdog      uint64
	idleCycles    uint64
	lastCommitted uint64
}

// New builds a core over the hierarchy, prefetcher and instruction
// source.
func New(cfg Config, hier *mem.Hierarchy, pf sbuf.Prefetcher, src Source) *CPU {
	n := cfg.ROBSize
	words := (n + 63) / 64
	c := &CPU{
		cfg:            cfg,
		hier:           hier,
		bp:             NewGshare(cfg.Gshare),
		robD:           make([]vm.DynInst, n),
		robSeq:         make([]uint64, n),
		robDone:        make([]uint64, n),
		robWake:        make([]uint64, n),
		robWaitN:       make([]uint8, n),
		robFlags:       make([]uint8, n),
		wakeHead:       make([]int32, n),
		wakeNext:       make([]int32, 2*n),
		robRd:          make([]uint8, n),
		robClass:       make([]uint8, n),
		wakeable:       make([]uint64, words),
		ready:          make([]uint64, words),
		wheel:          make([]uint64, wheelSpan*words),
		late:           make([]uint64, words),
		fetchQ:         make([]fetchItem, cfg.FetchQueueSize),
		storeQ:         make([]int32, n),
		storeSeqQ:      make([]uint64, n),
		storeLoQ:       make([]uint64, n),
		storeHiQ:       make([]uint64, n),
		robConflict:    make([]int32, n),
		robConflictSeq: make([]uint64, n),
		srcBuf:         make([]vm.DynInst, srcBatch),
	}
	// Build FU pools; divides share their multiplier's units and
	// branches execute on the integer ALUs, as in the paper.
	c.pools[isa.ClassNop] = newFUPool(cfg.FUCount[isa.ClassNop])
	c.pools[isa.ClassIntALU] = newFUPool(cfg.FUCount[isa.ClassIntALU])
	c.pools[isa.ClassBranch] = c.pools[isa.ClassIntALU]
	c.pools[isa.ClassIntMul] = newFUPool(cfg.FUCount[isa.ClassIntMul])
	c.pools[isa.ClassIntDiv] = c.pools[isa.ClassIntMul]
	c.pools[isa.ClassLoad] = newFUPool(cfg.FUCount[isa.ClassLoad])
	c.pools[isa.ClassStore] = c.pools[isa.ClassLoad]
	c.pools[isa.ClassFPAdd] = newFUPool(cfg.FUCount[isa.ClassFPAdd])
	c.pools[isa.ClassFPMul] = newFUPool(cfg.FUCount[isa.ClassFPMul])
	c.pools[isa.ClassFPDiv] = c.pools[isa.ClassFPMul]
	for cl := range c.fuOcc {
		c.fuOcc[cl] = 1
		if !cfg.FUPipelined[cl] {
			c.fuOcc[cl] = cfg.FULatency[cl]
		}
	}
	c.Reset(pf, src)
	return c
}

// Reset returns the core to the state New leaves it in, over a new
// prefetcher and instruction source: empty pipeline and queues, cycle
// 0, zero statistics, idle functional units, no delta histogram. It
// keeps the configuration, the hierarchy and every array, so sampled
// simulation allocates one core per run rather than one per
// measurement interval. The branch predictor keeps its state:
// SetBranchState, which overwrites every predictor field, seeds it.
func (c *CPU) Reset(pf sbuf.Prefetcher, src Source) {
	if pf == nil {
		pf = sbuf.Null{}
	}
	for _, p := range c.pools {
		clear(p.busyUntil)
	}
	// Every scalar not named here starts at zero.
	*c = CPU{
		cfg:                 c.cfg,
		hier:                c.hier,
		pf:                  pf,
		src:                 src,
		bp:                  c.bp,
		robD:                cleared(c.robD),
		robSeq:              cleared(c.robSeq),
		robDone:             cleared(c.robDone),
		robWake:             cleared(c.robWake),
		robWaitN:            cleared(c.robWaitN),
		robFlags:            cleared(c.robFlags),
		robRd:               cleared(c.robRd),
		robClass:            cleared(c.robClass),
		wakeHead:            c.wakeHead,
		wakeNext:            cleared(c.wakeNext),
		wakeable:            cleared(c.wakeable),
		ready:               cleared(c.ready),
		wheel:               cleared(c.wheel),
		late:                cleared(c.late),
		lateMin:             math.MaxUint64,
		storeQ:              cleared(c.storeQ),
		storeSeqQ:           cleared(c.storeSeqQ),
		storeLoQ:            cleared(c.storeLoQ),
		storeHiQ:            cleared(c.storeHiQ),
		robConflict:         cleared(c.robConflict),
		robConflictSeq:      cleared(c.robConflictSeq),
		minUnissuedStoreSeq: noStoreSeq,
		fetchQ:              cleared(c.fetchQ),
		srcBuf:              cleared(c.srcBuf),
		lastIBlock:          math.MaxUint64,
		pools:               c.pools,
		fuOcc:               c.fuOcc,
		// Every register starts architectural: ready since cycle 0.
		regKnown: ^uint64(0),
	}
	c.rt, _ = pf.(rangeTicker)
	for i := range c.lastWriter {
		c.lastWriter[i] = noDep
	}
	for i := range c.wakeHead {
		c.wakeHead[i] = noDep32
	}
}

// SetDeltaHistogram attaches Figure-4 instrumentation: every committed
// training miss is also observed by h.
func (c *CPU) SetDeltaHistogram(h *predict.DeltaHistogram) { c.hist = h }

// Stats returns the current counters.
func (c *CPU) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycle
	s.Branches = c.bp.Branches
	s.Mispredicts = c.bp.Mispredicts()
	return s
}

// Hierarchy returns the memory system (for bus-utilization reporting).
func (c *CPU) Hierarchy() *mem.Hierarchy { return c.hier }

// Prefetcher returns the prefetcher under study.
func (c *CPU) Prefetcher() sbuf.Prefetcher { return c.pf }

// wakeConsumers drains producer idx's waiter chain after it issues,
// folding its completion cycle into every waiting consumer and
// publishing each consumer once its last outstanding producer link
// resolves.
func (c *CPU) wakeConsumers(idx int) {
	done := c.robDone[idx]
	for n := c.wakeHead[idx]; n != noDep32; {
		cons := int(n >> 1)
		if done > c.robWake[cons] {
			c.robWake[cons] = done
		}
		if c.robWaitN[cons]--; c.robWaitN[cons] == 0 {
			c.publish(cons)
		}
		n = c.wakeNext[n]
	}
	c.wakeHead[idx] = noDep32
}

// publish makes slot idx, whose wake-up cycle robWake[idx] is now
// known, wakeable, and schedules it for the issue scan.
func (c *CPU) publish(idx int) {
	c.wakeable[idx>>6] |= 1 << (uint(idx) & 63)
	c.schedule(idx)
}

// schedule puts a published slot where its wake-up cycle w says: in
// ready if w is at most drained, in bucket w%wheelSpan if w is within
// the wheel's horizon, else in the late set.
func (c *CPU) schedule(idx int) {
	w, bit := c.robWake[idx], uint64(1)<<(uint(idx)&63)
	switch {
	case w <= c.drained:
		c.ready[idx>>6] |= bit
	case w <= c.drained+wheelSpan:
		c.wheel[int(w&(wheelSpan-1))*len(c.ready)+idx>>6] |= bit
	default:
		c.late[idx>>6] |= bit
		if w < c.lateMin {
			c.lateMin = w
		}
	}
}

// advanceWheel moves every entry whose wake-up cycle the clock has
// reached into ready: it empties the buckets of the cycles since
// drained (all of them after a jump of at least wheelSpan cycles, since
// every bucketed entry is then due), then pulls the late entries that
// came within the horizon.
func (c *CPU) advanceWheel() {
	words := len(c.ready)
	n := c.cycle - c.drained
	if n > wheelSpan {
		n = wheelSpan
	}
	for cy := c.drained + 1; n > 0; cy, n = cy+1, n-1 {
		b := c.wheel[int(cy&(wheelSpan-1))*words:][:words]
		for i, m := range b {
			if m != 0 {
				c.ready[i] |= m
				b[i] = 0
			}
		}
	}
	c.drained = c.cycle
	horizon := c.drained + wheelSpan
	if c.lateMin > horizon {
		return
	}
	c.lateMin = math.MaxUint64
	for wi, m := range c.late {
		for m != 0 {
			idx := wi<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if w := c.robWake[idx]; w > horizon {
				if w < c.lateMin {
					c.lateMin = w
				}
				continue
			}
			c.late[wi] &^= 1 << (uint(idx) & 63)
			c.schedule(idx)
		}
	}
}

// DefaultWatchdogCycles is the no-commit watchdog threshold used when
// Config.WatchdogCycles is zero.
const DefaultWatchdogCycles = 1_000_000

// DeadlockError reports the no-commit watchdog tripping: the simulated
// machine went WatchdogCycles consecutive cycles without committing an
// instruction, which a correct model never does.
type DeadlockError struct {
	Cycle      uint64 // cycle at which the watchdog fired
	IdleCycles uint64 // consecutive cycles without a commit
	ROB        int    // reorder-buffer occupancy at the time
	FetchQueue int    // fetch-queue occupancy at the time
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("cpu: no commit for %d cycles at cycle %d (rob=%d, fq=%d)",
		e.IdleCycles, e.Cycle, e.ROB, e.FetchQueue)
}

// Run simulates until maxInsts instructions commit or the program
// ends, returning the final statistics. It panics if the no-commit
// watchdog trips; RunChecked is the errors-as-values path.
func (c *CPU) Run(maxInsts uint64) Stats {
	st, err := c.RunChecked(context.Background(), maxInsts)
	if err != nil {
		panic(err)
	}
	return st
}

// RunChecked simulates until maxInsts instructions commit or the
// program ends. The statistics cover whatever was simulated, even on
// error. A tripped no-commit watchdog returns a *DeadlockError instead
// of panicking, and ctx cancellation (checked every few thousand
// cycles, so a context deadline bounds a runaway simulation's wall
// clock) aborts the run with ctx's error.
//
// Under Config.CycleMode's event-driven mode (the default), a cycle in
// which no stage makes progress triggers a clock jump to the earliest
// future cycle at which any component can change state (see event.go),
// replaying the prefetcher's per-cycle work across the gap. Jumps are
// capped at the watchdog's firing cycle and at the next ctx-check
// boundary, so deadlock detection and cancellation behave exactly as
// in accurate mode. Every statistic matches between the modes except
// the skip telemetry (Stats.SkippedCycles and Stats.Jumps).
func (c *CPU) RunChecked(ctx context.Context, maxInsts uint64) (Stats, error) {
	_, err := c.Advance(ctx, maxInsts, 0)
	return c.Stats(), err
}

// Advance runs the simulation towards maxInsts committed instructions
// (0 = to program completion), pausing once at least stopAt
// instructions have committed (stopAt == 0 never pauses). It reports
// whether the run finished — paused runs resume with another Advance
// call and are bit-identical to an unpaused RunChecked, which is what
// lets sim report progress between chunks. Watchdog and
// cancellation semantics match RunChecked.
func (c *CPU) Advance(ctx context.Context, maxInsts, stopAt uint64) (bool, error) {
	if !c.run.started {
		c.run.started = true
		c.run.eventDriven = c.cfg.CycleMode.eventDriven()
		c.run.watchdog = c.cfg.WatchdogCycles
		if c.run.watchdog == 0 {
			c.run.watchdog = DefaultWatchdogCycles
		}
	}
	watchdog := c.run.watchdog
	eventDriven := c.run.eventDriven
	for {
		if c.stats.Committed >= maxInsts && maxInsts > 0 {
			return true, nil
		}
		if c.srcDone && c.robCount == 0 && c.fqLen == 0 {
			return true, nil
		}
		if stopAt > 0 && c.stats.Committed >= stopAt {
			return false, nil
		}
		c.cycle++
		c.pf.Tick(c.cycle)
		prog := c.commit()
		if c.issue() {
			prog = true
		}
		if c.dispatch() {
			prog = true
		}
		if c.fetch() {
			prog = true
		}

		if c.cycle&4095 == 0 && ctx.Err() != nil {
			return false, ctx.Err()
		}
		if c.stats.Committed == c.run.lastCommitted {
			c.run.idleCycles++
			if c.run.idleCycles > watchdog {
				return false, &DeadlockError{
					Cycle: c.cycle, IdleCycles: c.run.idleCycles,
					ROB: c.robCount, FetchQueue: c.fqLen,
				}
			}
		} else {
			c.run.idleCycles = 0
			c.run.lastCommitted = c.stats.Committed
		}

		if eventDriven && !prog {
			next := c.nextEventCycle()
			// Land exactly on the watchdog's firing cycle if nothing
			// fires earlier, and on every 4096-cycle boundary the
			// accurate loop checks ctx at.
			if fire := c.cycle + (watchdog + 1 - c.run.idleCycles); next > fire {
				next = fire
			}
			if bound := (c.cycle | 4095) + 1; next > bound {
				next = bound
			}
			if next > c.cycle+1 {
				c.tickPrefetcher(c.cycle+1, next-1)
				skipped := next - 1 - c.cycle
				c.cycle = next - 1
				c.run.idleCycles += skipped
				c.stats.SkippedCycles += skipped
				c.stats.Jumps++
			}
		}
	}
}

// fetch brings instructions from the source into the fetch queue,
// following the branch predictor: a mispredicted control transfer
// blocks further fetch until it issues (resolve) plus the refill
// penalty; an I-cache miss blocks fetch until the line arrives. It
// reports whether it did any observable work this cycle — consuming
// an instruction or touching the I-cache; discovering the source has
// run dry is not progress (the discovery is idempotent, and the cycle
// it happens on is never skipped: a cycle with open fetch gates and a
// live source always fetches).
func (c *CPU) fetch() bool {
	if c.fetchBlocked || c.cycle < c.fetchResume {
		return false
	}
	active := false
	budget := c.cfg.FetchWidth
	branches := c.cfg.BranchPredPerCycle
	for budget > 0 && c.fqLen < c.cfg.FetchQueueSize {
		d, ok := c.peek()
		if !ok {
			return active
		}
		active = true
		// Instruction cache: one access per new block touched.
		if blk := c.hier.L1I.BlockAddr(d.PC); blk != c.lastIBlock {
			res := c.hier.AccessI(c.cycle, d.PC)
			c.lastIBlock = blk
			if !res.Hit {
				c.fetchResume = res.Ready
				return true
			}
		}
		if d.IsCTI() && branches == 0 {
			return true // out of branch-prediction bandwidth this cycle
		}
		// Copy the record into the ring, then predict through the
		// stored copy: taking the address of a loop-local DynInst
		// would heap-allocate it on every fetched CTI.
		slot := c.fqHead + c.fqLen
		if slot >= len(c.fetchQ) {
			slot -= len(c.fetchQ)
		}
		c.fqLen++
		// Field by field: a composite-literal store of the whole item
		// stalls on store forwarding when the record is read back.
		item := &c.fetchQ[slot]
		item.d = *d
		item.mispredict = false
		item.availableAt = c.cycle + 1
		c.consume()
		if item.d.IsCTI() {
			branches--
			item.mispredict = c.bp.Predict(&item.d)
		}
		budget--
		if item.mispredict {
			c.fetchBlocked = true
			return true
		}
		if item.d.Taken {
			// The fetch group cannot run past a taken control
			// transfer within a cycle.
			c.lastIBlock = math.MaxUint64
			return true
		}
	}
	return active
}

// peek returns a pointer to the next dynamic instruction without
// consuming it. The pointer points into the batch buffer and is valid
// until the next consume call.
func (c *CPU) peek() (*vm.DynInst, bool) {
	if c.srcPos == c.srcLen {
		if c.srcDone {
			return nil, false
		}
		c.srcPos, c.srcLen = 0, c.src.Fill(c.srcBuf)
		if c.srcLen == 0 {
			c.srcDone = true
			return nil, false
		}
	}
	return &c.srcBuf[c.srcPos], true
}

func (c *CPU) consume() {
	c.fetched++
	c.srcPos++
}

// dispatch moves instructions from the fetch queue into the reorder
// buffer, renaming their register dependencies. It reports whether any
// instruction dispatched.
func (c *CPU) dispatch() bool {
	width := c.cfg.DecodeWidth
	dispatched := false
	for width > 0 && c.fqLen > 0 {
		item := &c.fetchQ[c.fqHead]
		if item.availableAt > c.cycle {
			return dispatched
		}
		if c.robCount >= c.cfg.ROBSize {
			return dispatched
		}
		isLoad := item.d.IsLoad()
		isStore := item.d.IsStore()
		if (isLoad || isStore) && c.lsqCount >= c.cfg.LSQSize {
			return dispatched
		}
		dispatched = true
		if c.fqHead++; c.fqHead == len(c.fetchQ) {
			c.fqHead = 0
		}
		c.fqLen--
		width--

		idx := c.robHead + c.robCount
		if idx >= c.cfg.ROBSize {
			idx -= c.cfg.ROBSize
		}
		c.robCount++
		if isLoad || isStore {
			c.lsqCount++
		}
		c.seq++
		c.robD[idx] = item.d
		c.robSeq[idx] = c.seq
		c.robDone[idx] = 0
		flags := uint8(0)
		if isLoad {
			flags |= fLoad
		}
		if isStore {
			flags |= fStore
		}
		if item.mispredict {
			flags |= fMispred
		}
		c.robFlags[idx] = flags
		c.robClass[idx] = uint8(isa.ClassOf(item.d.Op))

		base := uint64(0)
		waitN := uint8(0)
		for i, src := range [2]isa.Reg{item.d.Rs1, item.d.Rs2} {
			if src == isa.RegNone || src == isa.R0 {
				continue
			}
			if w := c.lastWriter[src]; w != noDep {
				if c.regKnown&(1<<src) != 0 {
					// The producer already issued: capture its ready
					// cycle from the scoreboard instead of its entry.
					if at := c.regReadyAt[src]; at > base {
						base = at
					}
				} else {
					// The producer has not issued (a cleared
					// scoreboard bit with a live writer implies
					// exactly that): chain onto its waiter list; its
					// issue pushes the missing ready cycle.
					node := int32(idx*2 + i)
					c.wakeNext[node] = c.wakeHead[w]
					c.wakeHead[w] = node
					waitN++
				}
			}
		}
		c.robWake[idx] = base
		c.robWaitN[idx] = waitN
		if waitN == 0 {
			c.publish(idx)
		}

		rd := item.d.Rd
		c.robRd[idx] = uint8(rd)
		if rd != isa.RegNone && rd != isa.R0 {
			c.lastWriter[rd] = idx
			c.lastWriterSeq[rd] = c.seq
			c.regKnown &^= 1 << rd
		}
		switch {
		case isStore:
			sp := c.storeHead + c.storeCount
			if sp >= len(c.storeQ) {
				sp -= len(c.storeQ)
			}
			c.storeQ[sp] = int32(idx)
			c.storeSeqQ[sp] = c.seq
			c.storeLoQ[sp] = item.d.EffAddr
			c.storeHiQ[sp] = item.d.EffAddr + uint64(item.d.MemSize)
			c.storeCount++
			c.countGrains(item.d.EffAddr, item.d.MemSize, 1)
			if c.minUnissuedStoreSeq == noStoreSeq {
				c.minUnissuedStoreSeq, c.minUnissuedStoreSlot = c.seq, sp
			}
		case isLoad:
			c.robConflict[idx] = noDep32
			// Every in-flight store is older than this load; the
			// youngest overlapping one (if any) is the forwarding
			// source for its whole lifetime.
			lo := item.d.EffAddr
			hi := lo + uint64(item.d.MemSize)
			if !c.grainsBusy(lo, item.d.MemSize) {
				break // no in-flight store shares a granule: no scan
			}
			for i := c.storeCount - 1; i >= 0; i-- {
				sp := c.storeHead + i
				if sp >= len(c.storeQ) {
					sp -= len(c.storeQ)
				}
				if lo < c.storeHiQ[sp] && c.storeLoQ[sp] < hi {
					s := c.storeQ[sp]
					c.robConflict[idx] = s
					c.robConflictSeq[idx] = c.robSeq[s]
					break
				}
			}
		}
	}
	return dispatched
}

// grainSpan returns the first hashed granule of the byte range
// [addr, addr+size) and how many granules it covers. An empty range
// covers addr's granule, since the overlap test matches an empty range
// lying strictly inside another. Counting granules from the size
// rather than from the end address keeps a range that wraps at 2^64
// consistent between store entry and exit.
func grainSpan(addr uint64, size uint8) (first uint64, n int) {
	n = int((addr&7 + uint64(size) + 7) >> 3)
	return addr >> 3, max(n, 1)
}

// countGrains adds delta to the in-flight store count of every granule
// the store range [addr, addr+size) covers.
func (c *CPU) countGrains(addr uint64, size uint8, delta uint32) {
	g, n := grainSpan(addr, size)
	for ; n > 0; g, n = g+1, n-1 {
		c.storeGrain[g&(storeGrains-1)] += delta
	}
}

// grainsBusy reports whether any in-flight store touches a granule of
// the load range [addr, addr+size).
func (c *CPU) grainsBusy(addr uint64, size uint8) bool {
	g, n := grainSpan(addr, size)
	for ; n > 0; g, n = g+1, n-1 {
		if c.storeGrain[g&(storeGrains-1)] != 0 {
			return true
		}
	}
	return false
}

// issue selects ready instructions, oldest first: it advances the
// wake-up wheel to the current cycle, then walks the ready bitmask from
// robHead, clearing each bit as its entry issues. Completed entries
// waiting to commit, entries gated on an un-issued producer and entries
// whose operands are not yet available are not in the mask. It reports
// whether any instruction issued.
func (c *CPU) issue() bool {
	c.advanceWheel()
	budget := c.cfg.IssueWidth
	head := c.robHead
	hw := head >> 6
	lowMask := uint64(1)<<(uint(head)&63) - 1
	cont := c.issueWord(hw, c.ready[hw]&^lowMask, &budget)
	for wi := hw + 1; cont && wi < len(c.ready); wi++ {
		cont = c.issueWord(wi, c.ready[wi], &budget)
	}
	for wi := 0; cont && wi < hw; wi++ {
		cont = c.issueWord(wi, c.ready[wi], &budget)
	}
	if cont {
		c.issueWord(hw, c.ready[hw]&lowMask, &budget)
	}
	return budget < c.cfg.IssueWidth
}

// issueWord tries to issue every candidate in one pre-masked word of
// the ready bitmask, in slot order (age order within the caller's
// walk). It reports whether the scan may continue: false once the
// issue budget is exhausted. A consumer published mid-scan joins ready
// only if its wake-up cycle is the current one (a zero-latency
// forward); the caller reads each later word afresh, so such a
// consumer can still issue this cycle if it lies ahead of the walk.
func (c *CPU) issueWord(wi int, m uint64, budget *int) bool {
	for m != 0 {
		idx := wi<<6 + bits.TrailingZeros64(m)
		m &= m - 1
		flags := c.robFlags[idx]
		switch {
		case flags&fLoad != 0:
			if !c.issueLoad(idx) {
				continue
			}
		case flags&fStore != 0:
			if !c.issueStore(idx) {
				continue
			}
		default:
			class := c.robClass[idx]
			if !c.pools[class].tryIssue(c.cycle, c.fuOcc[class]) {
				continue
			}
			c.robFlags[idx] = flags | fIssued
			c.robDone[idx] = c.cycle + c.cfg.FULatency[class]
		}
		bit := uint64(1) << (uint(idx) & 63)
		c.wakeable[wi] &^= bit
		c.ready[wi] &^= bit
		c.wakeConsumers(idx)
		// Writeback scheduling: the destination's ready cycle is now
		// known — publish it on the scoreboard unless a younger
		// writer has already renamed the register.
		if rd := c.robRd[idx]; isa.Reg(rd) != isa.RegNone && rd != uint8(isa.R0) &&
			c.lastWriter[rd] == idx && c.lastWriterSeq[rd] == c.robSeq[idx] {
			c.regReadyAt[rd] = c.robDone[idx]
			c.regKnown |= 1 << rd
		}
		*budget--
		if flags&fMispred != 0 {
			// The front end redirects when the CTI resolves, then
			// pays the refill penalty.
			c.fetchBlocked = false
			c.fetchResume = c.robDone[idx] + c.cfg.MispredictPenalty
			c.lastIBlock = math.MaxUint64
		}
		if *budget == 0 {
			return false
		}
	}
	return true
}

// loadConflict returns the ROB slot of the store the load in slot idx
// must respect under DisPerfect — its dispatch-time youngest
// overlapping older store, provided that store is still in flight —
// or -1. A recycled slot (sequence mismatch) or a retired store means
// no conflict remains: commit is in order, so every older overlapping
// store left the ring even earlier.
func (c *CPU) loadConflict(idx int) int {
	s := c.robConflict[idx]
	if s < 0 || c.robSeq[s] != c.robConflictSeq[idx] || c.robFlags[s]&fRetired != 0 {
		return -1
	}
	return int(s)
}

// rescanMinUnissued recomputes the oldest un-issued store watermark
// when the watermark store issues. Every store older than it had
// already issued, so the walk starts just past its ring slot and stops
// at the first un-issued store. The watermark only moves toward the
// tail, so each store is visited at most once while it is in the ring.
func (c *CPU) rescanMinUnissued() {
	end := c.storeHead + c.storeCount // the slot past the youngest store
	if end >= len(c.storeQ) {
		end -= len(c.storeQ)
	}
	for sp := c.minUnissuedStoreSlot; ; {
		if sp++; sp == len(c.storeQ) {
			sp = 0
		}
		if sp == end {
			break
		}
		if c.robFlags[c.storeQ[sp]]&fIssued == 0 {
			c.minUnissuedStoreSeq, c.minUnissuedStoreSlot = c.storeSeqQ[sp], sp
			return
		}
	}
	c.minUnissuedStoreSeq = noStoreSeq
}

// issueLoad attempts to issue the load in slot idx; it reports whether
// the load issued this cycle.
func (c *CPU) issueLoad(idx int) bool {
	conflict := -1
	switch c.cfg.Disambiguation {
	case DisNone:
		if c.minUnissuedStoreSeq < c.robSeq[idx] {
			return false // some older store has not issued
		}
	case DisPerfect:
		conflict = c.loadConflict(idx)
		if conflict >= 0 && c.robFlags[conflict]&fIssued == 0 {
			return false // wait for the producing store
		}
	}

	if !c.pools[isa.ClassLoad].tryIssue(c.cycle, 1) {
		return false
	}
	c.robFlags[idx] |= fIssued

	if c.cfg.Disambiguation == DisPerfect && conflict >= 0 {
		// Store-to-load forwarding (2-cycle penalty, §5.1). Forwarded
		// loads do not access the cache and do not train the
		// predictor (§4.2).
		start := c.cycle
		if d := c.robDone[conflict]; d > start {
			start = d
		}
		done := start + c.cfg.StoreForwardLatency
		c.robDone[idx] = done
		c.robFlags[idx] |= fForwarded
		c.stats.Forwards++
		c.stats.LoadLatencySum += done - c.cycle
		return true
	}

	c.accessMemory(idx)
	c.stats.LoadLatencySum += c.robDone[idx] - c.cycle
	return true
}

// accessMemory runs a load through the TLB, the L1D, the stream
// buffers (probed in parallel with the L1 lookup) and, on a full miss,
// the lower hierarchy — also firing the stream-buffer allocation
// request the paper triggers when a load misses both structures.
func (c *CPU) accessMemory(idx int) {
	addr := c.robD[idx].EffAddr
	ac := c.cycle + c.hier.DTLB.Translate(addr)
	c.stats.DAccesses++

	hit, inflight, ready := c.hier.ProbeD(ac, addr)
	switch {
	case hit:
		c.robDone[idx] = ac + c.cfg.L1HitLatency
	case inflight:
		c.stats.DMisses++
		c.robDone[idx] = maxU64(ready, ac+c.cfg.L1HitLatency)
	default:
		kind, sbReady := c.pf.Lookup(ac, addr)
		switch kind {
		case sbuf.LookupHitReady:
			// The buffered block moves into the L1; the load pays a
			// normal lookup latency. Counts as a hit (the data was on
			// chip and usable), but still trains the predictor (the
			// L1 itself missed).
			c.hier.FillL1D(addr)
			c.stats.SBHitsReady++
			c.robDone[idx] = ac + c.cfg.L1HitLatency
			c.robFlags[idx] |= fTrainMiss
		case sbuf.LookupHitUnfetched:
			// The stream had predicted this block but the prefetch
			// never reached the bus: a normal miss, except that the
			// correct stream already exists, so no allocation request
			// is made.
			res := c.hier.MissFillD(ac, addr)
			c.stats.DMisses++
			c.robDone[idx] = maxU64(res.Ready, ac+c.cfg.L1HitLatency)
			c.robFlags[idx] |= fTrainMiss
		case sbuf.LookupHitPending:
			// Tag matched but the prefetch is in flight: the tag
			// moves into an MSHR and the load completes with the
			// fill. A miss, per the paper.
			c.hier.PromoteToMSHR(ac, addr, sbReady)
			c.stats.SBHitsPending++
			c.stats.DMisses++
			c.robDone[idx] = maxU64(sbReady, ac+c.cfg.L1HitLatency)
			c.robFlags[idx] |= fTrainMiss
		default:
			res := c.hier.MissFillD(ac, addr)
			c.stats.DMisses++
			c.robDone[idx] = maxU64(res.Ready, ac+c.cfg.L1HitLatency)
			c.robFlags[idx] |= fTrainMiss
			c.pf.AllocationRequest(ac, c.robD[idx].PC, addr)
		}
	}
}

// issueStore attempts to issue a store; stores retire into the memory
// system at issue (timing-wise) and never block commit.
func (c *CPU) issueStore(idx int) bool {
	if !c.pools[isa.ClassStore].tryIssue(c.cycle, 1) {
		return false
	}
	c.robFlags[idx] |= fIssued
	c.robDone[idx] = c.cycle + c.cfg.FULatency[isa.ClassStore]
	if c.robSeq[idx] == c.minUnissuedStoreSeq {
		c.rescanMinUnissued()
	}

	// Write-allocate: the store contributes demand traffic and miss
	// statistics but its latency is absorbed by the store buffer.
	addr := c.robD[idx].EffAddr
	ac := c.cycle + c.hier.DTLB.Translate(addr)
	c.stats.DAccesses++
	hit, inflight, _ := c.hier.ProbeD(ac, addr)
	if !hit {
		c.stats.DMisses++
		if !inflight {
			c.hier.MissFillD(ac, addr)
		}
	}
	return true
}

// commit retires completed instructions in order, training the
// prefetcher's predictor with the in-order miss stream (the paper's
// write-back update). It reports whether any instruction retired.
func (c *CPU) commit() bool {
	committed := false
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		idx := c.robHead
		flags := c.robFlags[idx]
		if flags&fIssued == 0 || c.robDone[idx] > c.cycle {
			return committed
		}
		committed = true
		if flags&fLoad != 0 {
			c.stats.Loads++
			if flags&fTrainMiss != 0 && flags&fForwarded == 0 {
				c.stats.TrainEvents++
				d := &c.robD[idx]
				c.pf.Train(d.PC, d.EffAddr)
				if c.hist != nil {
					c.hist.Observe(d.EffAddr)
				}
			}
		}
		if flags&fStore != 0 {
			c.stats.Stores++
			// Stores commit in age order, so this store is the ring's
			// oldest entry. fRetired invalidates any load's cached
			// conflict pointer to it.
			c.robFlags[idx] = flags | fRetired
			lo := c.storeLoQ[c.storeHead]
			c.countGrains(lo, uint8(c.storeHiQ[c.storeHead]-lo), ^uint32(0)) // -1
			if c.storeHead++; c.storeHead == len(c.storeQ) {
				c.storeHead = 0
			}
			c.storeCount--
		}
		if rd := c.robRd[idx]; isa.Reg(rd) != isa.RegNone && rd != uint8(isa.R0) {
			if c.lastWriter[rd] == idx && c.lastWriterSeq[rd] == c.robSeq[idx] {
				c.lastWriter[rd] = noDep
			}
		}
		if flags&(fLoad|fStore) != 0 {
			c.lsqCount--
		}
		c.stats.Committed++
		if c.robHead++; c.robHead == c.cfg.ROBSize {
			c.robHead = 0
		}
		c.robCount--
	}
	return committed
}

// cleared zeroes s in place and returns it.
func cleared[S ~[]E, E any](s S) S {
	clear(s)
	return s
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
