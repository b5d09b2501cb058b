package cpu

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/vm"
)

// Functional is the retire-at-fetch fast-forward executor for sampled
// simulation: it walks the recorded committed-instruction stream in
// program order, a batch at a time from a Stream, advancing every
// structure whose warm-up matters for a later detailed interval —
// L1I/L1D/L2 tag arrays, the data TLB, and the gshare front end —
// without modelling the ROB, functional units, issue timing, or buses.
// Architectural state needs no work at all: the trace *is* the
// architectural execution, so "position in the trace" fully determines
// registers and memory.
//
// Fidelity notes, in decreasing order of exactness:
//
//   - Gshare and the L1I are advanced bit-exactly: the detailed front
//     end fetches the committed path in program order and trains the
//     predictor at fetch, so replaying the same stream through the
//     same structures reproduces their state precisely (including the
//     lastIBlock access-dedup behaviour and its resets on taken and
//     mispredicted control transfers). Tests assert this equivalence.
//   - The DTLB and L1D/L2 are advanced in program order, whereas the
//     detailed core touches them in (out-of-order) issue order and
//     stream-buffer fills add scheme-dependent contents. Residency is
//     near-identical; LRU ordering can differ locally. The detailed
//     warm-up prefix of each measurement interval absorbs this.
//   - Prefetcher state is not advanced here (it is scheme-specific and
//     checkpoints are shared across schemes). Instead the executor
//     records the most recent TrainRingCap L1D load tag-misses in
//     program order; each scheme replays that ring through its own
//     Prefetcher.Train at interval start, warming Markov/stride tables
//     with exactly the event stream the detailed commit stage feeds
//     them.
type Functional struct {
	hier *mem.Hierarchy
	bp   *Gshare

	src Stream
	n   uint64 // records in src
	pos uint64
	// buf[bufPos:bufLen] holds the records src decoded past pos.
	buf            []vm.DynInst
	bufPos, bufLen int

	lastIBlock uint64

	ring     []TrainEvent // fixed-capacity ring of recent train events
	ringHead int          // next write slot
	ringLen  int
	trained  uint64 // train events recorded (across restores)

	executed uint64 // total instructions executed (across restores)

	// Optional per-bucket L1D miss profile (EnableMissProfile).
	profShift uint
	profile   []uint32
}

// TrainRingCap bounds the train-event ring carried by a checkpoint.
// 4096 events comfortably cover the training horizon of every
// predictor variant (Markov tables key on consecutive misses; stride
// tables on a handful of events per PC) at ~16 bytes per event.
const TrainRingCap = 4096

// TrainEvent is one prefetcher-training event: a committed load whose
// block missed the L1D tag array, in program order.
type TrainEvent struct {
	PC   uint64
	Addr uint64
}

// FunctionalState is a checkpoint of the functional executor: the
// scheme-independent warm state at a trace position. It is what the
// sample store holds and what detailed measurement intervals resume
// from.
type FunctionalState struct {
	Pos uint64
	// IBlock is the fetch dedup cursor (the last I-cache block
	// touched). Carrying it makes restore+advance bit-identical to a
	// straight-through pass, so a checkpoint's content is independent
	// of the request order that produced it.
	IBlock uint64
	Mem    mem.WarmState
	BP     GshareState
	Train  []TrainEvent // oldest first, at most TrainRingCap events
}

// Stream is a seekable Source of known length, which the functional
// executor reads: trace.Replay, or a SliceSource.
type Stream interface {
	Source
	Seek(pos uint64) // reposition the stream pos records in
	Len() int        // records in the stream
}

// NewFunctionalStream builds a cold executor over a recording read
// from src, positioned at its start. memCfg and gcfg must match the
// detailed configuration the checkpoints will seed, or
// SetWarmState/SetBranchState will reject the snapshots later.
func NewFunctionalStream(memCfg mem.Config, gcfg GshareConfig, src Stream) *Functional {
	src.Seek(0)
	return &Functional{
		hier:       mem.New(memCfg),
		bp:         NewGshare(gcfg),
		src:        src,
		n:          uint64(src.Len()),
		buf:        make([]vm.DynInst, srcBatch),
		lastIBlock: math.MaxUint64,
		ring:       make([]TrainEvent, TrainRingCap),
	}
}

// NewFunctional builds a cold executor over a decoded recording. No
// simulator path calls it: it remains for the benchmark module's
// functional probe, and adapts the slice to NewFunctionalStream.
func NewFunctional(memCfg mem.Config, gcfg GshareConfig, insts []vm.DynInst) *Functional {
	return NewFunctionalStream(memCfg, gcfg, &SliceSource{Insts: insts})
}

// Pos returns the executor's position in the recording (instructions
// executed since position zero, not counting restores).
func (f *Functional) Pos() uint64 { return f.pos }

// Len returns the length of the underlying recording.
func (f *Functional) Len() uint64 { return f.n }

// Executed returns the total instructions this executor has run,
// summed across restores — the fast-forward work actually performed.
func (f *Functional) Executed() uint64 { return f.executed }

// Trained returns the total train events this executor has recorded,
// summed across restores. The difference between two readings is how
// many of a snapshot's train events are newer than an earlier one's.
func (f *Functional) Trained() uint64 { return f.trained }

// EnableMissProfile makes the executor count data-side L2 misses per bucket of
// 2^shift instructions, indexed by stream position. The profile is the
// scheme-independent covariate sampled simulation stratifies on: a
// bucket with an extreme miss count marks a burst whose cycle cost
// systematic time-sampling would mis-weight, so such buckets are
// measured in detail instead of sampled.
func (f *Functional) EnableMissProfile(shift uint, buckets int) {
	f.profShift = shift
	f.profile = make([]uint32, buckets)
}

// MissProfile returns the profile being collected (nil when disabled).
func (f *Functional) MissProfile() []uint32 { return f.profile }

// AdvanceTo executes instructions until the position reaches pos
// (clamped to the recording length) and returns how many instructions
// were executed. Advancing backwards is a no-op; use Restore.
func (f *Functional) AdvanceTo(pos uint64) uint64 {
	pos = min(pos, f.n)
	if pos <= f.pos {
		return 0
	}
	n := pos - f.pos
	for f.pos < pos {
		if f.bufPos == f.bufLen {
			f.bufPos, f.bufLen = 0, f.src.Fill(f.buf)
			if f.bufLen == 0 {
				panic(fmt.Sprintf("cpu: stream ended at %d of its %d records", f.pos, f.n))
			}
		}
		end := f.bufPos + int(min(pos-f.pos, uint64(f.bufLen-f.bufPos)))
		f.exec(f.buf[f.bufPos:end])
		f.pos += uint64(end - f.bufPos)
		f.bufPos = end
	}
	f.executed += n
	return n
}

// exec executes a batch of records starting at the executor's
// position.
func (f *Functional) exec(batch []vm.DynInst) {
	h, bp := f.hier, f.bp
	idx := f.pos
	for _, d := range batch {
		// Instruction side: one access per new block, exactly like the
		// detailed fetch stage (including its dedup resets below).
		if blk := h.L1I.BlockAddr(d.PC); blk != f.lastIBlock {
			f.lastIBlock = blk
			if !h.L1I.Access(d.PC) {
				if !h.L2.Access(blk) {
					h.L2.Insert(h.L2.BlockAddr(blk))
				}
				h.L1I.Insert(blk)
			}
		}
		mispredict := false
		if d.IsCTI() {
			mispredict = bp.Predict(&d)
		}
		if mispredict || d.Taken {
			// The detailed front end re-accesses the I-cache after a
			// taken transfer or a mispredict redirect.
			f.lastIBlock = math.MaxUint64
		}
		// Data side, in program order.
		if d.IsLoad() || d.IsStore() {
			h.DTLB.Translate(d.EffAddr)
			if !h.L1D.Access(d.EffAddr) {
				blk := h.L1D.BlockAddr(d.EffAddr)
				if !h.L2.Access(blk) {
					if f.profile != nil {
						// Profile L2 misses, not L1D ones: cycle-mass
						// bursts come from serialized memory-latency
						// chains, which L1D miss counts barely see.
						if b := idx >> f.profShift; b < uint64(len(f.profile)) {
							f.profile[b]++
						}
					}
					h.L2.Insert(h.L2.BlockAddr(blk))
				}
				h.L1D.Insert(blk)
				if d.IsLoad() {
					f.ring[f.ringHead] = TrainEvent{PC: d.PC, Addr: d.EffAddr}
					f.ringHead++
					if f.ringHead == len(f.ring) {
						f.ringHead = 0
					}
					if f.ringLen < len(f.ring) {
						f.ringLen++
					}
					f.trained++
				}
			}
		}
		idx++
	}
}

// Snapshot captures the executor's state as a checkpoint. The returned
// state shares nothing with the executor and stays valid as it keeps
// advancing.
func (f *Functional) Snapshot() *FunctionalState {
	st := new(FunctionalState)
	f.SnapshotInto(st)
	return st
}

// SnapshotInto captures the executor's state into st, reusing st's
// buffers when they are large enough. st shares nothing with the
// executor afterwards.
func (f *Functional) SnapshotInto(st *FunctionalState) {
	st.Pos, st.IBlock = f.pos, f.lastIBlock
	f.hier.WarmStateInto(&st.Mem)
	f.bp.StateInto(&st.BP)
	if st.Train == nil || cap(st.Train) < f.ringLen {
		// Never nil, even when empty, and with room for a full ring.
		st.Train = make([]TrainEvent, f.ringLen, len(f.ring))
	}
	st.Train = st.Train[:f.ringLen]
	start := f.ringHead - f.ringLen
	if start < 0 {
		start += len(f.ring)
	}
	n := copy(st.Train, f.ring[start:])
	copy(st.Train[n:], f.ring)
}

// Restore rewinds (or jumps) the executor to a checkpoint taken from
// an identically-configured executor over the same recording, seeking
// its stream to the checkpoint's position.
func (f *Functional) Restore(st *FunctionalState) error {
	if st.Pos > f.n {
		return fmt.Errorf("cpu: checkpoint position %d beyond recording length %d", st.Pos, f.n)
	}
	if len(st.Train) > len(f.ring) {
		return fmt.Errorf("cpu: checkpoint carries %d train events, ring capacity is %d", len(st.Train), len(f.ring))
	}
	if err := f.hier.SetWarmState(st.Mem); err != nil {
		return err
	}
	if err := f.bp.SetState(st.BP); err != nil {
		return err
	}
	f.src.Seek(st.Pos)
	f.pos, f.bufPos, f.bufLen = st.Pos, 0, 0
	f.lastIBlock = st.IBlock
	copy(f.ring, st.Train)
	f.ringHead = len(st.Train) % len(f.ring)
	f.ringLen = len(st.Train)
	return nil
}

// BTBEntryState is one BTB line of a GshareState.
type BTBEntryState struct {
	PC      uint64
	Target  uint64
	Valid   bool
	LastUse uint64
}

// GshareState is a deep snapshot of the branch predictor: history,
// counters, BTB, RAS and its statistics (the statistics ride along so
// equivalence tests can compare complete predictors; interval
// measurement diffs stats and is insensitive to the restored base).
type GshareState struct {
	History  uint64
	Counters []uint8
	BTB      []BTBEntryState
	RAS      []uint64
	RASTop   int
	Clock    uint64

	Branches    uint64
	DirWrong    uint64
	TargetWrong uint64
}

// State returns a deep copy of the predictor's state.
func (g *Gshare) State() GshareState {
	var st GshareState
	g.StateInto(&st)
	return st
}

// StateInto copies the predictor's state into st, reusing st's buffers
// when they are large enough.
func (g *Gshare) StateInto(st *GshareState) {
	st.History, st.RASTop, st.Clock = g.history, g.rasTop, g.clock
	st.Branches, st.DirWrong, st.TargetWrong = g.Branches, g.DirWrong, g.TargetWrong
	st.Counters = append(st.Counters[:0], g.counters...)
	st.RAS = append(st.RAS[:0], g.ras...)
	st.BTB = st.BTB[:0]
	for _, e := range g.btb {
		st.BTB = append(st.BTB, BTBEntryState{PC: e.pc, Target: e.target, Valid: e.valid, LastUse: e.lastUse})
	}
}

// SetState overwrites the predictor's state from a snapshot taken from
// an identically-configured predictor.
func (g *Gshare) SetState(st GshareState) error {
	if len(st.Counters) != len(g.counters) || len(st.BTB) != len(g.btb) || len(st.RAS) != len(g.ras) {
		return fmt.Errorf("cpu: gshare snapshot shape (%d counters, %d btb, %d ras) does not match geometry (%d, %d, %d)",
			len(st.Counters), len(st.BTB), len(st.RAS), len(g.counters), len(g.btb), len(g.ras))
	}
	if st.RASTop < 0 || st.RASTop >= len(g.ras) {
		return fmt.Errorf("cpu: gshare snapshot rasTop %d out of range for %d entries", st.RASTop, len(g.ras))
	}
	copy(g.counters, st.Counters)
	for i, e := range st.BTB {
		g.btb[i] = btbEntry{pc: e.PC, target: e.Target, valid: e.Valid, lastUse: e.LastUse}
	}
	copy(g.ras, st.RAS)
	g.history = st.History
	g.rasTop = st.RASTop
	g.clock = st.Clock
	g.Branches = st.Branches
	g.DirWrong = st.DirWrong
	g.TargetWrong = st.TargetWrong
	return nil
}

// SetBranchState seeds the core's branch predictor from a checkpoint,
// before the first Advance.
func (c *CPU) SetBranchState(st GshareState) error { return c.bp.SetState(st) }

// BranchState returns a deep copy of the core's branch predictor
// state. Used by the functional-equivalence tests.
func (c *CPU) BranchState() GshareState { return c.bp.State() }

// Fetched returns how many instructions the front end has consumed
// from its source. Used by the functional-equivalence tests to align
// executor positions.
func (c *CPU) Fetched() int { return c.fetched }
