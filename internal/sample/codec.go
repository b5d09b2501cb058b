package sample

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// Checkpoint file format (all integers little-endian):
//
//	magic    "PSBCKPT1"                        8 bytes
//	key      workload string, seed u64, geometry string
//	pos      u64
//	bp       history, clock u64; counters; btb entries; ras; rasTop u64;
//	         branches, dirWrong, targetWrong u64
//	mem      L1D, L1I, L2 cache states; DTLB state
//	         (cache state: clock u64; lines as tag u64, stamp u64,
//	         valid byte — a valid line never has stamp 0)
//	train    event count u32, then pc/addr u64 pairs
//	checksum sha256 over everything above    32 bytes
//
// Strings are a u32 length plus bytes; slices a u32 count plus
// elements. The checksum makes torn or bit-rotted files detectable:
// Decode rejects them and the store silently regenerates (and
// overwrites) the checkpoint, mirroring the disk-cache self-healing
// elsewhere in the tree.

var ckptMagic = [8]byte{'P', 'S', 'B', 'C', 'K', 'P', 'T', '1'}

// Encode serializes a checkpoint, keyed so Decode can reject files
// applied under the wrong workload, seed or geometry.
func Encode(k Key, st *cpu.FunctionalState) []byte {
	var w ckptWriter
	w.bytes(ckptMagic[:])
	w.str(k.Workload)
	w.u64(uint64(k.Seed))
	w.str(k.Geometry)
	w.u64(st.Pos)
	w.u64(st.IBlock)

	bp := &st.BP
	w.u64(bp.History)
	w.u64(bp.Clock)
	w.u32(uint32(len(bp.Counters)))
	w.bytes(bp.Counters)
	w.u32(uint32(len(bp.BTB)))
	for _, e := range bp.BTB {
		w.u64(e.PC)
		w.u64(e.Target)
		w.u64(e.LastUse)
		w.bool(e.Valid)
	}
	w.u32(uint32(len(bp.RAS)))
	for _, v := range bp.RAS {
		w.u64(v)
	}
	w.u64(uint64(bp.RASTop))
	w.u64(bp.Branches)
	w.u64(bp.DirWrong)
	w.u64(bp.TargetWrong)

	w.cache(st.Mem.L1D)
	w.cache(st.Mem.L1I)
	w.cache(st.Mem.L2)

	tlb := &st.Mem.DTLB
	w.u64(tlb.Clock)
	w.u64(uint64(tlb.Used))
	w.u64(uint64(tlb.MRU))
	w.u32(uint32(len(tlb.Pages)))
	for _, v := range tlb.Pages {
		w.u64(v)
	}
	w.u32(uint32(len(tlb.LastUse)))
	for _, v := range tlb.LastUse {
		w.u64(v)
	}

	w.u32(uint32(len(st.Train)))
	for _, e := range st.Train {
		w.u64(e.PC)
		w.u64(e.Addr)
	}

	sum := sha256.Sum256(w.buf)
	w.bytes(sum[:])
	return w.buf
}

// Decode parses a checkpoint, verifying the checksum and that the file
// was written for k.
func Decode(data []byte, k Key) (*cpu.FunctionalState, error) {
	if len(data) < len(ckptMagic)+sha256.Size {
		return nil, errors.New("sample: checkpoint truncated")
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if want := sha256.Sum256(body); string(want[:]) != string(sum) {
		return nil, errors.New("sample: checkpoint checksum mismatch")
	}
	r := ckptReader{buf: body}
	var magic [8]byte
	r.bytes(magic[:])
	if magic != ckptMagic {
		return nil, errors.New("sample: not a checkpoint file")
	}
	workload := r.str()
	seed := int64(r.u64())
	geom := r.str()
	if r.err == nil && (workload != k.Workload || seed != k.Seed || geom != k.Geometry) {
		return nil, fmt.Errorf("sample: checkpoint was written for %s/seed=%d/g=%s", workload, seed, geom)
	}

	st := &cpu.FunctionalState{Pos: r.u64(), IBlock: r.u64()}
	bp := &st.BP
	bp.History = r.u64()
	bp.Clock = r.u64()
	bp.Counters = r.byteSlice()
	bp.BTB = make([]cpu.BTBEntryState, r.count())
	for i := range bp.BTB {
		bp.BTB[i] = cpu.BTBEntryState{PC: r.u64(), Target: r.u64(), LastUse: r.u64(), Valid: r.bool()}
	}
	bp.RAS = r.u64Slice()
	bp.RASTop = int(r.u64())
	bp.Branches = r.u64()
	bp.DirWrong = r.u64()
	bp.TargetWrong = r.u64()

	st.Mem.L1D = r.cache()
	st.Mem.L1I = r.cache()
	st.Mem.L2 = r.cache()

	tlb := &st.Mem.DTLB
	tlb.Clock = r.u64()
	tlb.Used = int(r.u64())
	tlb.MRU = int(r.u64())
	tlb.Pages = r.u64Slice()
	tlb.LastUse = r.u64Slice()

	st.Train = make([]cpu.TrainEvent, r.count())
	for i := range st.Train {
		st.Train[i] = cpu.TrainEvent{PC: r.u64(), Addr: r.u64()}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, errors.New("sample: trailing bytes in checkpoint")
	}
	return st, nil
}

type ckptWriter struct{ buf []byte }

func (w *ckptWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *ckptWriter) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *ckptWriter) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *ckptWriter) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}
func (w *ckptWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *ckptWriter) cache(st mem.CacheState) {
	w.u64(st.Clock)
	w.u32(uint32(len(st.Lines)))
	for _, l := range st.Lines {
		w.u64(l.Tag)
		w.u64(l.LastUse)
		w.bool(l.LastUse != 0) // the valid byte: stamp 0 marks an invalid line
	}
}

type ckptReader struct {
	buf []byte
	err error
}

// maxCount bounds decoded slice lengths so a corrupt-but-checksummed
// (hand-crafted) file cannot demand absurd allocations.
const maxCount = 1 << 26

func (r *ckptReader) fail() {
	if r.err == nil {
		r.err = errors.New("sample: checkpoint truncated")
	}
}

func (r *ckptReader) bytes(dst []byte) {
	if len(r.buf) < len(dst) {
		r.fail()
		return
	}
	copy(dst, r.buf)
	r.buf = r.buf[len(dst):]
}

func (r *ckptReader) u64() uint64 {
	if len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *ckptReader) u32() uint32 {
	if len(r.buf) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *ckptReader) bool() bool {
	if len(r.buf) < 1 {
		r.fail()
		return false
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v != 0
}

func (r *ckptReader) count() int {
	n := r.u32()
	if uint64(n) > maxCount || uint64(n) > uint64(len(r.buf)) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *ckptReader) str() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *ckptReader) byteSlice() []uint8 {
	n := r.count()
	if r.err != nil {
		return nil
	}
	out := make([]uint8, n)
	copy(out, r.buf)
	r.buf = r.buf[n:]
	return out
}

func (r *ckptReader) u64Slice() []uint64 {
	n := r.count()
	if r.err != nil || uint64(n) > uint64(math.MaxInt/8) {
		r.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

func (r *ckptReader) cache() mem.CacheState {
	st := mem.CacheState{Clock: r.u64()}
	st.Lines = make([]mem.CacheLineState, r.count())
	for i := range st.Lines {
		tag, lastUse, valid := r.u64(), r.u64(), r.bool()
		switch {
		case !valid:
			lastUse = 0
		case lastUse == 0 && r.err == nil:
			// No cache ever stamps a line 0, so the file is corrupt.
			r.err = fmt.Errorf("sample: checkpoint cache line %d is valid with stamp 0", i)
		}
		st.Lines[i] = mem.CacheLineState{Tag: tag, LastUse: lastUse}
	}
	return st
}
