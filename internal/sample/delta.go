package sample

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/vm"
)

// Checkpoint deltas. Consecutive checkpoints of one stream share most
// of their state: over the default schedule at 2M instructions, about a
// tenth of the tag lines, a third of the train ring and under 1% of the
// gshare tables change from one checkpoint to the next. So the store
// keeps every checkpoint as a delta against the checkpoint it was
// derived from, and a chain's root as a delta against the zero state.
// Readers rebuild a state by zeroing it and applying a root and the
// deltas after it (see Cursor).
//
// The parts that change most are varint-coded. A changed tag line is
// its stamp's age below the array's clock, which is small for a line
// touched since the base, and its tag only when the tag changed. A
// train event is the difference of its PC and address from the event
// before, which is small within a loop.

// maxDepth bounds a delta chain: a checkpoint whose delta would sit
// more than maxDepth deltas past its chain's root becomes a root
// itself, so materializing any checkpoint applies at most maxDepth+1
// deltas.
const maxDepth = 64

// ckpt is one stored checkpoint, immutable once published: a delta
// against an earlier checkpoint of the same key or, for a root, against
// the zero state of the delta's array lengths.
type ckpt struct {
	pos   uint64
	base  *ckpt // nil for a root
	d     delta
	depth int    // deltas between the chain's root and this one
	size  uint64 // memory the checkpoint holds
}

// newCkpt stores st, which was derived from base's state baseSt, as a
// delta against base: fresh is how many of st's train events were
// recorded since base. When there is no base, or base's chain is
// already maxDepth deltas deep, st becomes a root holding its whole
// train ring. st is encoded, never kept.
func newCkpt(base *ckpt, baseSt, st *cpu.FunctionalState, fresh uint64) *ckpt {
	ck := &ckpt{pos: st.Pos}
	if base != nil && base.depth < maxDepth {
		ck.base, ck.depth = base, base.depth+1
	} else {
		baseSt, fresh = nil, uint64(len(st.Train))
	}
	ck.d.init(baseSt, st, fresh)
	ck.size = uint64(unsafe.Sizeof(*ck)) + ck.d.bytes()
	return ck
}

// sameShape reports whether b's arrays have a's lengths, so b can be
// stored as a delta against a. States from one executor always do; a
// loaded file differs only when it was crafted to, and then becomes a
// root.
func sameShape(a, b *cpu.FunctionalState) bool {
	return len(a.Mem.L1D.Lines) == len(b.Mem.L1D.Lines) &&
		len(a.Mem.L1I.Lines) == len(b.Mem.L1I.Lines) &&
		len(a.Mem.L2.Lines) == len(b.Mem.L2.Lines) &&
		len(a.BP.Counters) == len(b.BP.Counters) &&
		len(a.BP.BTB) == len(b.BP.BTB)
}

// sparse holds the elements of an n-element array that differ from the
// same array in a base state: a bitmap of the changed indices and the
// changed elements in index order. An unchanged array holds nothing.
type sparse[T comparable] struct {
	n       int
	changed []uint64
	vals    []T
}

// diff compares cur with base, or with zeros when base is nil.
func diff[T comparable](base, cur []T) sparse[T] {
	s := sparse[T]{n: len(cur)}
	changed := make([]uint64, (len(cur)+63)/64)
	n := 0
	for i, v := range cur {
		if v != at(base, i) {
			changed[i>>6] |= 1 << (i & 63)
			n++
		}
	}
	if n == 0 {
		return s
	}
	s.changed, s.vals = changed, make([]T, 0, n)
	for w, word := range changed {
		for ; word != 0; word &= word - 1 {
			s.vals = append(s.vals, cur[w<<6|bits.TrailingZeros64(word)])
		}
	}
	return s
}

// at returns base[i], or the zero value when base is nil.
func at[T any](base []T, i int) T {
	var v T
	if base != nil {
		v = base[i]
	}
	return v
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
	return 8*uint64(cap(s.changed)) + uint64(unsafe.Sizeof(zero))*uint64(cap(s.vals))
}

// tagDelta is one cache's n-line tag array as a delta: its clock, a
// bitmap of the lines that differ from the base's, and those lines in
// index order. A line is one varint of up to 65 bits: the zigzagged age
// of its stamp below the clock, shifted left once, with the low bit set
// when the tag changed too. Only then the new tag follows, as a varint.
type tagDelta struct {
	clock   uint64
	n       int
	changed []uint64
	lines   []byte
}

// diffTags compares cur with base, or with zeros when base is nil.
func diffTags(base []mem.CacheLineState, cur *mem.CacheState) tagDelta {
	t := tagDelta{clock: cur.Clock, n: len(cur.Lines)}
	changed := make([]uint64, (len(cur.Lines)+63)/64)
	size := 0
	for i, l := range cur.Lines {
		b := at(base, i)
		if l == b {
			continue
		}
		changed[i>>6] |= 1 << (i & 63)
		size += (bits.Len64(zigzag(t.clock-l.LastUse)) + 7) / 7
		if l.Tag != b.Tag {
			size += uvarintLen(l.Tag)
		}
	}
	if size == 0 {
		return t
	}
	t.changed, t.lines = changed, make([]byte, 0, size)
	for w, word := range changed {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			l := cur.Lines[i]
			age := zigzag(t.clock - l.LastUse)
			first := byte(age&0x3f) << 1
			newTag := l.Tag != at(base, i).Tag
			if newTag {
				first |= 1
			}
			if age >>= 6; age == 0 {
				t.lines = append(t.lines, first)
			} else {
				t.lines = binary.AppendUvarint(append(t.lines, first|0x80), age)
			}
			if newTag {
				t.lines = binary.AppendUvarint(t.lines, l.Tag)
			}
		}
	}
	return t
}

// apply turns st, holding the base's tag array, into the checkpoint's.
func (t *tagDelta) apply(st *mem.CacheState) {
	st.Clock = t.clock
	lines, enc, k := st.Lines, t.lines, 0
	for w, word := range t.changed {
		for ; word != 0; word &= word - 1 {
			l := &lines[w<<6|bits.TrailingZeros64(word)]
			first := enc[k]
			k++
			age := uint64(first>>1) & 0x3f
			if first >= 0x80 {
				var rest uint64
				rest, k = uvarint(enc, k)
				age |= rest << 6
			}
			l.LastUse = t.clock - unzigzag(age)
			if first&1 != 0 {
				l.Tag, k = uvarint(enc, k)
			}
		}
	}
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
	// train is the newest nTrain events of the ring, each as the
	// zigzagged differences of its PC and address from the event
	// before (the first from zero). After applying, the ring holds
	// trainLen events.
	train            []byte
	nTrain, trainLen int
}

// init encodes st against base, or against the zero state of st's
// array lengths when base is nil.
func (d *delta) init(base, st *cpu.FunctionalState, fresh uint64) {
	if base == nil {
		base = new(cpu.FunctionalState) // nil arrays, which diff reads as zeros
	}
	*d = delta{
		pos: st.Pos, iblock: st.IBlock,
		l1d:      diffTags(base.Mem.L1D.Lines, &st.Mem.L1D),
		l1i:      diffTags(base.Mem.L1I.Lines, &st.Mem.L1I),
		l2:       diffTags(base.Mem.L2.Lines, &st.Mem.L2),
		counters: diff(base.BP.Counters, st.BP.Counters),
		btb:      diff(base.BP.BTB, st.BP.BTB),
		bp:       st.BP,
		trainLen: len(st.Train),
	}
	copyTLB(&d.dtlb, &st.Mem.DTLB)
	d.bp.Counters, d.bp.BTB = nil, nil
	d.bp.RAS = fill(nil, st.BP.RAS)

	events := st.Train[len(st.Train)-int(min(fresh, uint64(len(st.Train)))):]
	d.nTrain = len(events)
	size := 0
	var prev cpu.TrainEvent
	for _, e := range events {
		size += uvarintLen(zigzag(e.PC-prev.PC)) + uvarintLen(zigzag(e.Addr-prev.Addr))
		prev = e
	}
	if size == 0 {
		return
	}
	d.train, prev = make([]byte, 0, size), cpu.TrainEvent{}
	for _, e := range events {
		d.train = binary.AppendUvarint(d.train, zigzag(e.PC-prev.PC))
		d.train = binary.AppendUvarint(d.train, zigzag(e.Addr-prev.Addr))
		prev = e
	}
}

// reset makes st the zero state of d's array lengths, which a root
// applies to, reusing st's buffers.
func (d *delta) reset(st *cpu.FunctionalState) {
	st.Mem.L1D.Lines = zeroed(st.Mem.L1D.Lines, d.l1d.n)
	st.Mem.L1I.Lines = zeroed(st.Mem.L1I.Lines, d.l1i.n)
	st.Mem.L2.Lines = zeroed(st.Mem.L2.Lines, d.l2.n)
	st.BP.Counters = zeroed(st.BP.Counters, d.counters.n)
	st.BP.BTB = zeroed(st.BP.BTB, d.btb.n)
	if st.Train == nil {
		st.Train = make([]cpu.TrainEvent, 0, cpu.TrainRingCap) // room for a full ring
	}
	st.Train = st.Train[:0]
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
	st.BP.Counters, st.BP.BTB, st.BP.RAS = counters, btb, fill(ras, d.bp.RAS)
	d.counters.apply(counters)
	d.btb.apply(btb)

	// Keep the base's newest events that still fit, then decode the
	// new ones after them.
	keep := d.trainLen - d.nTrain
	train := st.Train
	copy(train, train[len(train)-keep:])
	train = slices.Grow(train[:keep], d.nTrain)[:d.trainLen]
	var pc, addr, v uint64
	k := 0
	for i := keep; i < len(train); i++ {
		v, k = uvarint(d.train, k)
		pc += unzigzag(v)
		v, k = uvarint(d.train, k)
		addr += unzigzag(v)
		train[i] = cpu.TrainEvent{PC: pc, Addr: addr}
	}
	st.Train = train
}

func (d *delta) bytes() uint64 {
	n := d.counters.bytes() + d.btb.bytes() + uint64(cap(d.train)) +
		8*uint64(cap(d.bp.RAS)+cap(d.dtlb.Pages)+cap(d.dtlb.LastUse))
	for _, t := range [...]*tagDelta{&d.l1d, &d.l1i, &d.l2} {
		n += 8*uint64(cap(t.changed)) + uint64(cap(t.lines))
	}
	return n
}

// zigzag maps a difference taken modulo 2^64, read as signed, to a
// small unsigned value when it is near zero either way.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) uint64 { return v>>1 ^ -(v & 1) }

// uvarintLen is the length of v as a varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// uvarint decodes the varint at b[k:], which the store wrote itself,
// and returns it with the index past it. Masking the shift spares the
// compiler's check for shifts of 64 bits or more in every step.
func uvarint(b []byte, k int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		c := b[k]
		k++
		if c < 0x80 {
			return v | uint64(c)<<(s&63), k
		}
		v |= uint64(c&0x7f) << (s & 63)
	}
}

// zeroed returns s resized to n zero elements, reusing its buffer when
// it is large enough. It is never nil.
func zeroed[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fill returns dst holding a copy of src, reusing dst's buffer. It is
// never nil, like the arrays of a snapshot or a decoded state.
func fill[T any](dst, src []T) []T {
	if dst == nil {
		dst = make([]T, 0, len(src))
	}
	return append(dst[:0], src...)
}

func copyTLB(dst, src *mem.TLBState) {
	dst.Clock, dst.Used, dst.MRU = src.Clock, src.Used, src.MRU
	dst.Pages = fill(dst.Pages, src.Pages)
	dst.LastUse = fill(dst.LastUse, src.LastUse)
}

// batchBytes is the memory of a cpu.Functional's batch buffer: 256
// records (cpu's srcBatch). Beside it an executor holds what a
// materialized state of its shape holds: tag arrays, DTLB, gshare
// tables and a full train ring.
const batchBytes = 256 * uint64(unsafe.Sizeof(vm.DynInst{}))

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
