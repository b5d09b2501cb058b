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
// Every part but the scalars and the RAS is varint-coded, and an array
// holds only its changed elements, named by the gaps between their
// indices or by a bitmap (indexCoder). A changed tag line or DTLB slot
// is its stamp's age below the array's clock, which is small for one
// touched since the base, and its tag or page only when that changed.
// A train event is the difference of its PC and address from the event
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

// Changed indices. An array's delta says which of its n elements
// changed in whichever of two codes is shorter: each index as a varint
// of its gap past the index before (the first past -1), or a bitmap of
// (n+7)/8 bytes, bit i&7 of byte i>>3 set for index i, which is
// shorter where most of the array changed.

// An indexCoder codes one array's changed indices. The first pass
// counts each index; the second puts it, once the code is chosen.
type indexCoder struct {
	n, last, gapBytes int
	dense             bool // a bitmap rather than gaps
}

func newIndexCoder(n int) indexCoder { return indexCoder{n: n, last: -1} }

// count adds index i, past every index counted before, to the first
// pass.
func (c *indexCoder) count(i int) {
	c.gapBytes += uvarintLen(uint64(i - c.last - 1))
	c.last = i
}

// choose ends the first pass: it picks the shorter code and returns a
// buffer with room for it and payload more bytes, holding the bitmap's
// zero bytes when it picked the bitmap.
func (c *indexCoder) choose(payload int) []byte {
	bitmap := (c.n + 7) / 8
	c.dense, c.last = c.gapBytes > bitmap, -1
	if c.dense {
		return make([]byte, bitmap, bitmap+payload)
	}
	return make([]byte, 0, c.gapBytes+payload)
}

// put appends index i, past every index put before, to b, which holds
// the code so far.
func (c *indexCoder) put(b []byte, i int) []byte {
	if c.dense {
		b[i>>3] |= 1 << (i & 7)
	} else {
		b = binary.AppendUvarint(b, uint64(i-c.last-1))
	}
	c.last = i
	return b
}

// An indexReader reads back the indices an indexCoder put.
type indexReader struct {
	bitmap []byte // nil when the indices are gaps
	last   int
}

// newIndexReader returns a reader of the code that opens b, and the
// offset in b past a bitmap.
func newIndexReader(b []byte, n int, dense bool) (indexReader, int) {
	if !dense {
		return indexReader{last: -1}, 0
	}
	k := (n + 7) / 8
	return indexReader{bitmap: b[:k], last: -1}, k
}

// next returns the next index and the offset in b past it: past its
// gap at b[k:], or k itself under a bitmap.
func (r *indexReader) next(b []byte, k int) (int, int) {
	if r.bitmap == nil {
		var gap uint64
		gap, k = uvarint(b, k)
		r.last += int(gap) + 1
		return r.last, k
	}
	i := r.last + 1
	for {
		if w := r.bitmap[i>>3] >> (i & 7); w != 0 {
			r.last = i + bits.TrailingZeros8(w)
			return r.last, k
		}
		i = i | 7 + 1
	}
}

// sparse holds the elements of an n-element array that differ from the
// same array in a base state: their indices' code and the elements in
// index order. An unchanged array holds nothing.
type sparse[T comparable] struct {
	n     int
	dense bool
	idx   []byte
	vals  []T
}

// diff compares cur with base, or with zeros when base is nil.
func diff[T comparable](base, cur []T) sparse[T] {
	c, n := newIndexCoder(len(cur)), 0
	for i, v := range cur {
		if v != at(base, i) {
			c.count(i)
			n++
		}
	}
	if n == 0 {
		return sparse[T]{n: len(cur)}
	}
	idx, vals := c.choose(0), make([]T, 0, n)
	for i, v := range cur {
		if v != at(base, i) {
			idx = c.put(idx, i)
			vals = append(vals, v)
		}
	}
	return sparse[T]{n: len(cur), dense: c.dense, idx: idx, vals: vals}
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
	r, k := newIndexReader(s.idx, s.n, s.dense)
	for _, v := range s.vals {
		var i int
		i, k = r.next(s.idx, k)
		dst[i] = v
	}
}

func (s *sparse[T]) bytes() uint64 {
	var zero T
	return uint64(cap(s.idx)) + uint64(unsafe.Sizeof(zero))*uint64(cap(s.vals))
}

// Stamped elements — cache lines and DTLB slots — are each a tag and
// the LRU stamp of its last use. A stamped array's delta is one byte
// string: its changed indices' code, a changed element's gap (when
// the code is gaps) just before the element. An element is one varint
// of up to 65 bits: the zigzagged age of its stamp below the array's
// clock, shifted left once, with the low bit set when the tag changed
// too. Only then the new tag follows, as a varint.

// stampLen is the length of one changed element's code, past its
// index.
func stampLen(age uint64, newTag bool, tag uint64) int {
	n := (bits.Len64(zigzag(age)) + 7) / 7
	if newTag {
		n += uvarintLen(tag)
	}
	return n
}

// appendStamp appends one changed element's code to b.
func appendStamp(b []byte, age uint64, newTag bool, tag uint64) []byte {
	age = zigzag(age)
	first := byte(age&0x3f) << 1
	if newTag {
		first |= 1
	}
	if age >>= 6; age == 0 {
		b = append(b, first)
	} else {
		b = binary.AppendUvarint(append(b, first|0x80), age)
	}
	if newTag {
		b = binary.AppendUvarint(b, tag)
	}
	return b
}

// readStamp decodes the element code at b[k:] and returns its age,
// whether its tag changed, the new tag, and the offset past it.
func readStamp(b []byte, k int) (age uint64, newTag bool, tag uint64, next int) {
	first := b[k]
	k++
	age = uint64(first>>1) & 0x3f
	if first >= 0x80 {
		var rest uint64
		rest, k = uvarint(b, k)
		age |= rest << 6
	}
	if first&1 != 0 {
		tag, k = uvarint(b, k)
	}
	return unzigzag(age), first&1 != 0, tag, k
}

// tagDelta is one cache's n-line tag array as a delta: its clock and
// the code of the lines that differ from the base's.
type tagDelta struct {
	clock uint64
	n     int
	dense bool
	lines []byte
}

// diffTags compares cur with base, or with zeros when base is nil.
func diffTags(base []mem.CacheLineState, cur *mem.CacheState) tagDelta {
	t := tagDelta{clock: cur.Clock, n: len(cur.Lines)}
	c, size := newIndexCoder(t.n), 0
	for i, l := range cur.Lines {
		if b := at(base, i); l != b {
			c.count(i)
			size += stampLen(t.clock-l.LastUse, l.Tag != b.Tag, l.Tag)
		}
	}
	if size == 0 {
		return t
	}
	t.lines = c.choose(size)
	for i, l := range cur.Lines {
		if b := at(base, i); l != b {
			t.lines = appendStamp(c.put(t.lines, i), t.clock-l.LastUse, l.Tag != b.Tag, l.Tag)
		}
	}
	t.dense = c.dense
	return t
}

// apply turns st, holding the base's tag array, into the checkpoint's.
// It is the store's hottest loop, so it steps through the index code
// and decodes each line in place, as indexReader and readStamp do.
func (t *tagDelta) apply(st *mem.CacheState) {
	st.Clock = t.clock
	lines, enc, i, k := st.Lines, t.lines, -1, 0
	var bitmap []byte
	if t.dense {
		bitmap, k = enc[:(t.n+7)/8], (t.n+7)/8
	}
	for k < len(enc) {
		if bitmap != nil {
			i++
			for bitmap[i>>3]>>(i&7) == 0 {
				i = i | 7 + 1
			}
			i += bits.TrailingZeros8(bitmap[i>>3] >> (i & 7))
		} else {
			var gap uint64
			gap, k = uvarint(enc, k)
			i += int(gap) + 1
		}
		first := enc[k]
		k++
		age := uint64(first>>1) & 0x3f
		if first >= 0x80 {
			var rest uint64
			rest, k = uvarint(enc, k)
			age |= rest << 6
		}
		l := &lines[i]
		l.LastUse = t.clock - unzigzag(age)
		if first&1 != 0 {
			l.Tag, k = uvarint(enc, k)
		}
	}
}

// tlbDelta is the DTLB as a delta: its scalars, and its n slots coded
// as tag lines are, each slot's page as its tag. A TLB's page and
// stamp arrays have one length.
type tlbDelta struct {
	clock     uint64
	used, mru int
	n         int
	dense     bool
	slots     []byte
}

// diffTLB compares cur with base, whose arrays are nil in the zero
// state.
func diffTLB(base, cur *mem.TLBState) tlbDelta {
	t := tlbDelta{clock: cur.Clock, used: cur.Used, mru: cur.MRU, n: len(cur.Pages)}
	c, size := newIndexCoder(t.n), 0
	for i, page := range cur.Pages {
		stamp := cur.LastUse[i]
		if bp := at(base.Pages, i); page != bp || stamp != at(base.LastUse, i) {
			c.count(i)
			size += stampLen(t.clock-stamp, page != bp, page)
		}
	}
	if size == 0 {
		return t
	}
	t.slots = c.choose(size)
	for i, page := range cur.Pages {
		stamp := cur.LastUse[i]
		if bp := at(base.Pages, i); page != bp || stamp != at(base.LastUse, i) {
			t.slots = appendStamp(c.put(t.slots, i), t.clock-stamp, page != bp, page)
		}
	}
	t.dense = c.dense
	return t
}

// apply turns st, holding the base's DTLB, into the checkpoint's.
func (t *tlbDelta) apply(st *mem.TLBState) {
	st.Clock, st.Used, st.MRU = t.clock, t.used, t.mru
	r, k := newIndexReader(t.slots, t.n, t.dense)
	for k < len(t.slots) {
		var i int
		var age, page uint64
		var newPage bool
		i, k = r.next(t.slots, k)
		age, newPage, page, k = readStamp(t.slots, k)
		st.LastUse[i] = t.clock - age
		if newPage {
			st.Pages[i] = page
		}
	}
}

// delta is a checkpoint's state relative to its base's: the tag arrays,
// the DTLB and the gshare counters and BTB as the entries that
// changed, the RAS and scalars whole, and the train events recorded
// since the base.
type delta struct {
	pos, iblock  uint64
	l1d, l1i, l2 tagDelta
	dtlb         tlbDelta
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
		dtlb:     diffTLB(&base.Mem.DTLB, &st.Mem.DTLB),
		counters: diff(base.BP.Counters, st.BP.Counters),
		btb:      diff(base.BP.BTB, st.BP.BTB),
		bp:       st.BP,
		trainLen: len(st.Train),
	}
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
	st.Mem.DTLB.Pages = zeroed(st.Mem.DTLB.Pages, d.dtlb.n)
	st.Mem.DTLB.LastUse = zeroed(st.Mem.DTLB.LastUse, d.dtlb.n)
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
	d.dtlb.apply(&st.Mem.DTLB)
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
	return d.counters.bytes() + d.btb.bytes() + uint64(cap(d.train)) + 8*uint64(cap(d.bp.RAS)) +
		uint64(cap(d.l1d.lines)+cap(d.l1i.lines)+cap(d.l2.lines)+cap(d.dtlb.slots))
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
// never nil, like the arrays of a snapshot.
func fill[T any](dst, src []T) []T {
	if dst == nil {
		dst = make([]T, 0, len(src))
	}
	return append(dst[:0], src...)
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
