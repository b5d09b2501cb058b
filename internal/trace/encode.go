// Package trace captures and replays the committed-path dynamic
// instruction stream the functional simulator (internal/vm) feeds the
// timing core. Prefetching never alters the committed path, so the
// paper's evaluation matrix — the same workloads under many prefetcher
// configurations — only needs each workload executed once: every other
// cell replays the recorded stream through a zero-copy Source and
// skips the interpreter entirely.
//
// The package provides three layers:
//
//   - a compact binary encoding of vm.DynInst records (Encoder and
//     Decoder): PCs and effective addresses are delta-encoded against
//     the previous record and written as varints, so the common record
//     (sequential PC, small address stride) costs ~6 bytes instead of
//     32;
//   - an in-memory Replay source over a recorded []vm.DynInst slice,
//     structurally satisfying the timing core's Source interface;
//   - a process-wide Cache keyed by (workload, seed, MaxInsts) that
//     records each stream exactly once — concurrent requesters block
//     on the single recorder — and optionally persists recordings as
//     .psbtrace files for reuse across process invocations.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Format constants. The magic doubles as a version stamp: incompatible
// format changes bump the trailing digits.
const (
	// Magic opens every encoded trace.
	Magic = "PSBTRC01"
	// FileExt is the on-disk trace extension used by Cache.
	FileExt = ".psbtrace"
)

// Per-record flag bits. Fields whose bit is clear take their common
// value (fall-through PC/NextPC, no memory access) and are omitted from
// the encoding. Bit 2 is retired: it marked a sequence-number gap, which
// no stream from the VM ever had, so no file sets it and the decoder
// rejects it like any unknown bit.
const (
	flagTaken   = 1 << 0 // control left the fall-through path
	flagMem     = 1 << 1 // record carries MemSize + EffAddr delta
	flagPC      = 1 << 3 // PC != previous NextPC
	flagNextPC  = 1 << 4 // NextPC != PC + isa.InstBytes
	flagUnknown = ^byte(flagTaken | flagMem | flagPC | flagNextPC)
)

// Header describes one encoded stream.
type Header struct {
	// Workload, Seed and MaxInsts identify the recording (Cache.Key).
	Workload string
	Seed     int64
	MaxInsts uint64
	// Count is the number of records that follow.
	Count uint64
	// Complete reports the stream ended with the program (HALT or a
	// functional-simulator error) rather than the recording budget: a
	// complete trace reproduces the full run no matter how many
	// instructions the consumer asks for.
	Complete bool
}

// prevState is the delta-encoding context shared by Encoder and
// Decoder; both start from its zero value.
type prevState struct {
	nextPC  uint64
	effAddr uint64
}

// zigzag folds a signed delta into an unsigned varint-friendly form.
func zigzag(v uint64) uint64 { return (v << 1) ^ uint64(int64(v)>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) uint64 { return (v >> 1) ^ uint64(-int64(v&1)) }

// An Encoder writes a stream of DynInst records to w. Writes are
// buffered; call Flush when done.
type Encoder struct {
	w    *bufio.Writer
	prev prevState
	buf  []byte
}

// NewEncoder writes the header and returns an encoder for the records.
func NewEncoder(w io.Writer, hdr Header) (*Encoder, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	var flags byte
	if hdr.Complete {
		flags = 1
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(hdr.Workload)))
	buf = append(buf, hdr.Workload...)
	buf = binary.AppendUvarint(buf, zigzag(uint64(hdr.Seed)))
	buf = binary.AppendUvarint(buf, hdr.MaxInsts)
	buf = binary.AppendUvarint(buf, hdr.Count)
	if _, err := bw.Write(buf); err != nil {
		return nil, err
	}
	return &Encoder{w: bw, buf: buf[:0]}, nil
}

// Write appends one record.
func (e *Encoder) Write(d vm.DynInst) error {
	b := e.buf[:0]
	var flags byte
	if d.Taken {
		flags |= flagTaken
	}
	if d.MemSize != 0 {
		flags |= flagMem
	}
	if d.PC != e.prev.nextPC {
		flags |= flagPC
	}
	if d.NextPC != d.PC+isa.InstBytes {
		flags |= flagNextPC
	}
	b = append(b, byte(d.Op), flags, byte(d.Rd), byte(d.Rs1), byte(d.Rs2))
	if flags&flagPC != 0 {
		b = binary.AppendUvarint(b, zigzag(d.PC-e.prev.nextPC))
	}
	if flags&flagMem != 0 {
		b = append(b, d.MemSize)
		b = binary.AppendUvarint(b, zigzag(d.EffAddr-e.prev.effAddr))
		e.prev.effAddr = d.EffAddr
	}
	if flags&flagNextPC != 0 {
		b = binary.AppendUvarint(b, zigzag(d.NextPC-(d.PC+isa.InstBytes)))
	}
	e.prev.nextPC = d.NextPC
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

// Flush drains the encoder's buffer to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Decoding errors. Corrupt or truncated input yields ErrCorrupt (or an
// io error); it never panics, which the fuzz target enforces.
var ErrCorrupt = errors.New("trace: corrupt stream")

// maxWorkloadName bounds the header's workload-name length so a
// corrupt header cannot demand an absurd allocation.
const maxWorkloadName = 256

// minRecordBytes is the shortest encoded record: opcode, flags and
// three register bytes. n bytes of input therefore hold at most
// n/minRecordBytes records, whatever the header's Count claims.
const minRecordBytes = 5

// A Decoder reads an encoded stream. Next returns records one at a
// time; it is cheap enough to stream a multi-gigabyte trace without
// materializing it.
type Decoder struct {
	r      *bufio.Reader
	src    *countingReader // r's input, counting the bytes r pulled
	hdr    Header
	prev   prevState
	read   uint64
	sticky error
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewDecoder parses the header, leaving the decoder positioned at the
// first record.
func NewDecoder(r io.Reader) (*Decoder, error) {
	src := &countingReader{r: r}
	br := bufio.NewReaderSize(src, 1<<16)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	var hdr Header
	hdr.Complete = flags&1 != 0
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > maxWorkloadName {
		return nil, fmt.Errorf("%w: bad workload name length", ErrCorrupt)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: short workload name", ErrCorrupt)
	}
	hdr.Workload = string(name)
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: bad seed", ErrCorrupt)
	}
	hdr.Seed = int64(unzigzag(seed))
	if hdr.MaxInsts, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: bad max-insts", ErrCorrupt)
	}
	if hdr.Count, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	return &Decoder{r: br, src: src, hdr: hdr}, nil
}

// Header returns the stream's header.
func (d *Decoder) Header() Header { return d.hdr }

// offset returns the number of input bytes decoded so far.
func (d *Decoder) offset() int64 { return d.src.n - int64(d.r.Buffered()) }

// Next returns the next record. It returns io.EOF after the last
// record and ErrCorrupt (wrapped) on malformed input; either way the
// error is sticky.
func (d *Decoder) Next() (vm.DynInst, error) {
	if d.sticky != nil {
		return vm.DynInst{}, d.sticky
	}
	di, err := d.next()
	if err != nil {
		d.sticky = err
		return vm.DynInst{}, err
	}
	return di, nil
}

func (d *Decoder) next() (vm.DynInst, error) {
	if d.read >= d.hdr.Count {
		return vm.DynInst{}, io.EOF
	}
	// Peek reads the fixed fields in place; io.ReadFull into a local
	// array would move the array to the heap, one allocation per record.
	fixed, err := d.r.Peek(minRecordBytes)
	if err != nil {
		return vm.DynInst{}, fmt.Errorf("%w: short record: %v", ErrCorrupt, err)
	}
	op, flags := isa.Op(fixed[0]), fixed[1]
	if !op.Valid() || flags&flagUnknown != 0 {
		return vm.DynInst{}, fmt.Errorf("%w: bad opcode/flags %d/%#x", ErrCorrupt, op, flags)
	}
	di := vm.DynInst{
		Op:  op,
		Rd:  isa.Reg(fixed[2]),
		Rs1: isa.Reg(fixed[3]),
		Rs2: isa.Reg(fixed[4]),
	}
	_, _ = d.r.Discard(minRecordBytes) // cannot fail: Peek just buffered these bytes
	di.PC = d.prev.nextPC
	if flags&flagPC != 0 {
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return vm.DynInst{}, fmt.Errorf("%w: bad pc delta", ErrCorrupt)
		}
		di.PC += unzigzag(delta)
	}
	if flags&flagMem != 0 {
		sz, err := d.r.ReadByte()
		if err != nil {
			return vm.DynInst{}, fmt.Errorf("%w: short mem size", ErrCorrupt)
		}
		di.MemSize = sz
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return vm.DynInst{}, fmt.Errorf("%w: bad addr delta", ErrCorrupt)
		}
		di.EffAddr = d.prev.effAddr + unzigzag(delta)
		d.prev.effAddr = di.EffAddr
	}
	di.NextPC = di.PC + isa.InstBytes
	if flags&flagNextPC != 0 {
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return vm.DynInst{}, fmt.Errorf("%w: bad next-pc delta", ErrCorrupt)
		}
		di.NextPC += unzigzag(delta)
	}
	di.Taken = flags&flagTaken != 0
	d.prev.nextPC = di.NextPC
	d.read++
	return di, nil
}

// ReadAll decodes every remaining record into one slice, reserved up
// front for the records the header still promises. size is the input's
// total length in bytes, header included: it caps the reservation at
// what the unread bytes can hold, so an honest stream decodes into one
// allocation while a hostile Count claims no more memory than the
// input bounds.
func (d *Decoder) ReadAll(size int64) ([]vm.DynInst, error) {
	room := uint64(max(size-d.offset(), 0)) / minRecordBytes
	out := make([]vm.DynInst, 0, min(d.hdr.Count-d.read, room))
	for {
		di, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, di)
	}
}
