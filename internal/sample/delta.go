package sample

import (
	"math/bits"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// Checkpoint deltas. Consecutive checkpoints of one stream share most
// of their state: over the default schedule at 2M instructions, about a
// tenth of the tag lines, a third of the train ring and under 1% of the
// gshare tables change from one checkpoint to the next. So the store
// keeps most checkpoints as a delta against the checkpoint they were
// derived from, and readers rebuild a state by applying deltas to a
// whole checkpoint (see Cursor).

// maxDepth bounds a delta chain: a checkpoint whose delta would sit
// more than maxDepth deltas past its chain's whole checkpoint is
// stored whole, so materializing any checkpoint applies at most
// maxDepth deltas.
const maxDepth = 64

// ckpt is one stored checkpoint, immutable once published: a whole
// state, or a delta against an earlier checkpoint of the same key.
type ckpt struct {
	pos   uint64
	whole *cpu.FunctionalState // nil for a delta
	base  *ckpt                // a delta's base
	d     *delta
	depth int    // deltas between the chain's whole checkpoint and this one
	size  uint64 // memory the checkpoint holds
}

// newCkpt stores st, which was derived from base's state baseSt, as a
// delta against base: fresh is how many of st's train events were
// recorded since base. It stores st whole when there is no base or
// base's chain is already maxDepth deltas deep. st is copied, never
// kept.
func newCkpt(base *ckpt, baseSt, st *cpu.FunctionalState, fresh uint64) *ckpt {
	ck := &ckpt{pos: st.Pos}
	if base == nil || base.depth >= maxDepth {
		ck.whole = new(cpu.FunctionalState)
		copyState(ck.whole, st)
		ck.size = uint64(unsafe.Sizeof(*ck)+unsafe.Sizeof(*st)) + stateBytes(ck.whole)
		return ck
	}
	ck.base, ck.depth = base, base.depth+1
	ck.d = newDelta(baseSt, st, fresh)
	ck.size = uint64(unsafe.Sizeof(*ck)) + ck.d.bytes()
	return ck
}

// sameShape reports whether b's arrays have a's lengths, so b can be
// stored as a delta against a. States from one executor always do; a
// loaded file differs only when it was crafted to, and is then stored
// whole.
func sameShape(a, b *cpu.FunctionalState) bool {
	return len(a.Mem.L1D.Lines) == len(b.Mem.L1D.Lines) &&
		len(a.Mem.L1I.Lines) == len(b.Mem.L1I.Lines) &&
		len(a.Mem.L2.Lines) == len(b.Mem.L2.Lines) &&
		len(a.BP.Counters) == len(b.BP.Counters) &&
		len(a.BP.BTB) == len(b.BP.BTB)
}

// sparse holds the elements of an array that differ from the same
// array in a base state: a bitmap of the changed indices and the
// changed elements in index order. An unchanged array holds nothing.
type sparse[T comparable] struct {
	changed []uint64
	vals    []T
}

func diff[T comparable](base, cur []T) sparse[T] {
	changed := make([]uint64, (len(cur)+63)/64)
	n := 0
	for i, v := range cur {
		if v != base[i] {
			changed[i>>6] |= 1 << (i & 63)
			n++
		}
	}
	if n == 0 {
		return sparse[T]{}
	}
	s := sparse[T]{changed: changed, vals: make([]T, 0, n)}
	for w, word := range changed {
		for ; word != 0; word &= word - 1 {
			s.vals = append(s.vals, cur[w<<6|bits.TrailingZeros64(word)])
		}
	}
	return s
}

// apply writes the changed elements into dst, an array of the same
// length holding the base state.
func (s *sparse[T]) apply(dst []T) {
	k := 0
	for w, word := range s.changed {
		for ; word != 0; word &= word - 1 {
			dst[w<<6|bits.TrailingZeros64(word)] = s.vals[k]
			k++
		}
	}
}

func (s *sparse[T]) bytes() uint64 {
	var zero T
	return 8*uint64(len(s.changed)) + uint64(unsafe.Sizeof(zero))*uint64(len(s.vals))
}

// tagDelta is one cache's tag array as a delta: its clock and the
// lines that changed. It is never larger than the whole array plus
// 1/128 for the bitmap.
type tagDelta struct {
	clock uint64
	lines sparse[mem.CacheLineState]
}

func diffTags(base, cur *mem.CacheState) tagDelta {
	return tagDelta{clock: cur.Clock, lines: diff(base.Lines, cur.Lines)}
}

func (t *tagDelta) apply(st *mem.CacheState) {
	st.Clock = t.clock
	t.lines.apply(st.Lines)
}

// delta is a checkpoint's state relative to its base's: the tag arrays
// and the gshare counters and BTB as the entries that changed, the
// DTLB, RAS and scalars whole, and the train events recorded since the
// base.
type delta struct {
	pos, iblock  uint64
	l1d, l1i, l2 tagDelta
	dtlb         mem.TLBState
	// bp holds the gshare scalars and RAS; its counters and BTB are
	// nil and live in counters and btb.
	bp       cpu.GshareState
	counters sparse[uint8]
	btb      sparse[cpu.BTBEntryState]
	// train is the newest min(fresh, trainLen) events of the ring,
	// which after applying holds trainLen events.
	train    []cpu.TrainEvent
	trainLen int
}

func newDelta(base, st *cpu.FunctionalState, fresh uint64) *delta {
	d := &delta{
		pos: st.Pos, iblock: st.IBlock,
		l1d:      diffTags(&base.Mem.L1D, &st.Mem.L1D),
		l1i:      diffTags(&base.Mem.L1I, &st.Mem.L1I),
		l2:       diffTags(&base.Mem.L2, &st.Mem.L2),
		counters: diff(base.BP.Counters, st.BP.Counters),
		btb:      diff(base.BP.BTB, st.BP.BTB),
		trainLen: len(st.Train),
	}
	copyTLB(&d.dtlb, &st.Mem.DTLB)
	d.bp = st.BP
	d.bp.Counters, d.bp.BTB = nil, nil
	d.bp.RAS = append([]uint64(nil), st.BP.RAS...)
	n := min(fresh, uint64(len(st.Train)))
	d.train = append([]cpu.TrainEvent(nil), st.Train[uint64(len(st.Train))-n:]...)
	return d
}

// apply turns st, holding the base's state, into the checkpoint's.
func (d *delta) apply(st *cpu.FunctionalState) {
	st.Pos, st.IBlock = d.pos, d.iblock
	d.l1d.apply(&st.Mem.L1D)
	d.l1i.apply(&st.Mem.L1I)
	d.l2.apply(&st.Mem.L2)
	copyTLB(&st.Mem.DTLB, &d.dtlb)
	counters, btb, ras := st.BP.Counters, st.BP.BTB, st.BP.RAS
	st.BP = d.bp
	st.BP.Counters, st.BP.BTB, st.BP.RAS = counters, btb, append(ras[:0], d.bp.RAS...)
	d.counters.apply(counters)
	d.btb.apply(btb)
	// Keep the base's newest events that still fit, then append.
	keep := d.trainLen - len(d.train)
	copy(st.Train, st.Train[len(st.Train)-keep:])
	st.Train = append(st.Train[:keep], d.train...)
}

func (d *delta) bytes() uint64 {
	n := uint64(unsafe.Sizeof(*d)) + d.counters.bytes() + d.btb.bytes() +
		8*uint64(len(d.bp.RAS)+len(d.dtlb.Pages)+len(d.dtlb.LastUse)) +
		uint64(unsafe.Sizeof(cpu.TrainEvent{}))*uint64(len(d.train))
	for _, t := range [...]*tagDelta{&d.l1d, &d.l1i, &d.l2} {
		n += t.lines.bytes()
	}
	return n
}

// copyState makes dst a deep copy of src, reusing dst's buffers.
func copyState(dst, src *cpu.FunctionalState) {
	dst.Pos, dst.IBlock = src.Pos, src.IBlock
	copyCache(&dst.Mem.L1D, &src.Mem.L1D)
	copyCache(&dst.Mem.L1I, &src.Mem.L1I)
	copyCache(&dst.Mem.L2, &src.Mem.L2)
	copyTLB(&dst.Mem.DTLB, &src.Mem.DTLB)
	counters, btb, ras := dst.BP.Counters, dst.BP.BTB, dst.BP.RAS
	dst.BP = src.BP
	dst.BP.Counters = append(counters[:0], src.BP.Counters...)
	dst.BP.BTB = append(btb[:0], src.BP.BTB...)
	dst.BP.RAS = append(ras[:0], src.BP.RAS...)
	if dst.Train == nil {
		dst.Train = make([]cpu.TrainEvent, 0, len(src.Train)) // a snapshot's ring is never nil
	}
	dst.Train = append(dst.Train[:0], src.Train...)
}

func copyCache(dst, src *mem.CacheState) {
	dst.Clock = src.Clock
	dst.Lines = append(dst.Lines[:0], src.Lines...)
}

func copyTLB(dst, src *mem.TLBState) {
	dst.Clock, dst.Used, dst.MRU = src.Clock, src.Used, src.MRU
	dst.Pages = append(dst.Pages[:0], src.Pages...)
	dst.LastUse = append(dst.LastUse[:0], src.LastUse...)
}

// stateBytes is the memory a materialized state's buffers hold, not
// counting the state itself.
func stateBytes(st *cpu.FunctionalState) uint64 {
	lines := cap(st.Mem.L1D.Lines) + cap(st.Mem.L1I.Lines) + cap(st.Mem.L2.Lines)
	return uint64(unsafe.Sizeof(mem.CacheLineState{}))*uint64(lines) +
		8*uint64(cap(st.Mem.DTLB.Pages)+cap(st.Mem.DTLB.LastUse)+cap(st.BP.RAS)) +
		uint64(cap(st.BP.Counters)) +
		uint64(unsafe.Sizeof(cpu.BTBEntryState{}))*uint64(cap(st.BP.BTB)) +
		uint64(unsafe.Sizeof(cpu.TrainEvent{}))*uint64(cap(st.Train))
}
