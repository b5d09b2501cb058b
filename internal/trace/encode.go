// Package trace captures and replays the committed-path dynamic
// instruction stream the functional simulator (internal/vm) feeds the
// timing core. Prefetching never alters the committed path, so the
// paper's evaluation matrix — the same workloads under many prefetcher
// configurations — only needs each workload executed once: every other
// cell replays the recorded stream and skips the interpreter entirely.
//
// A recording has one form, in memory as on disk: the record bytes of
// a .psbtrace file. PCs and effective addresses are delta-encoded
// against the previous record and written as varints, so the common
// record (sequential PC, small address stride) costs about 6 bytes
// instead of the 32 of a decoded vm.DynInst. The package provides:
//
//   - one record encoder (appendRecord), through which the recorder
//     appends every stepped instruction, and one checked batch decoder
//     (cursor.decode), which file validation, replay and seeking all
//     call;
//   - Replay, a cursor over a shared recording that decodes records on
//     demand in batches (Fill) and seeks from a mark kept every
//     markEvery records (From);
//   - a process-wide Cache keyed by (workload, seed, MaxInsts) that
//     records each stream exactly once — concurrent requesters block
//     on the single recorder — and optionally persists recordings as
//     .psbtrace files for reuse across process invocations.
package trace

import (
	"bytes"
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

// prevState is the delta-encoding context the encoder and the decoder
// carry from record to record; both start from its zero value.
type prevState struct {
	nextPC  uint64
	effAddr uint64
}

// zigzag folds a signed delta into an unsigned varint-friendly form.
func zigzag(v uint64) uint64 { return (v << 1) ^ uint64(int64(v)>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) uint64 { return (v >> 1) ^ uint64(-int64(v&1)) }

// appendHeader appends the encoding of hdr, magic included, to b.
func appendHeader(b []byte, hdr Header) []byte {
	var flags byte
	if hdr.Complete {
		flags = 1
	}
	b = append(b, Magic...)
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(hdr.Workload)))
	b = append(b, hdr.Workload...)
	b = binary.AppendUvarint(b, zigzag(uint64(hdr.Seed)))
	b = binary.AppendUvarint(b, hdr.MaxInsts)
	return binary.AppendUvarint(b, hdr.Count)
}

// appendRecord appends the encoding of d to b and advances the delta
// context: the one record encoder, used by every recording.
func appendRecord(b []byte, prev *prevState, d *vm.DynInst) []byte {
	var flags byte
	if d.Taken {
		flags |= flagTaken
	}
	if d.MemSize != 0 {
		flags |= flagMem
	}
	if d.PC != prev.nextPC {
		flags |= flagPC
	}
	if d.NextPC != d.PC+isa.InstBytes {
		flags |= flagNextPC
	}
	b = append(b, byte(d.Op), flags, byte(d.Rd), byte(d.Rs1), byte(d.Rs2))
	if flags&flagPC != 0 {
		b = binary.AppendUvarint(b, zigzag(d.PC-prev.nextPC))
	}
	if flags&flagMem != 0 {
		b = append(b, d.MemSize)
		b = binary.AppendUvarint(b, zigzag(d.EffAddr-prev.effAddr))
		prev.effAddr = d.EffAddr
	}
	if flags&flagNextPC != 0 {
		b = binary.AppendUvarint(b, zigzag(d.NextPC-(d.PC+isa.InstBytes)))
	}
	prev.nextPC = d.NextPC
	return b
}

// writeFile writes a .psbtrace file: the header, then the record bytes
// unchanged.
func writeFile(w io.Writer, hdr Header, records []byte) error {
	if _, err := w.Write(appendHeader(nil, hdr)); err != nil {
		return err
	}
	_, err := w.Write(records)
	return err
}

// ErrCorrupt reports malformed encoded input: a bad header, a bad
// record, a record count the bytes cannot hold, or bytes after the
// last record. Decoding never panics on such input, which the fuzz
// target enforces.
var ErrCorrupt = errors.New("trace: corrupt stream")

// maxWorkloadName bounds the header's workload-name length so a
// corrupt header cannot demand an absurd allocation.
const maxWorkloadName = 256

// minRecordBytes is the shortest encoded record: opcode, flags and
// three register bytes. n bytes of input therefore hold at most
// n/minRecordBytes records, whatever the header's Count claims.
const minRecordBytes = 5

// parseHeader decodes the header at the start of data and returns it
// with the offset of the first record. A header is accepted only in
// the exact form appendHeader writes, so an accepted file stores back
// to identical bytes.
func parseHeader(data []byte) (Header, int, error) {
	var hdr Header
	if len(data) < len(Magic)+1 || string(data[:len(Magic)]) != Magic {
		return hdr, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(Magic) + 1
	hdr.Complete = data[len(Magic)] == 1
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad %s", ErrCorrupt, what)
		}
		off += n
		return v, nil
	}
	nameLen, err := uvarint("workload name length")
	if err != nil {
		return hdr, 0, err
	}
	if nameLen > maxWorkloadName || nameLen > uint64(len(data)-off) {
		return hdr, 0, fmt.Errorf("%w: bad workload name length", ErrCorrupt)
	}
	hdr.Workload = string(data[off : off+int(nameLen)])
	off += int(nameLen)
	seed, err := uvarint("seed")
	if err != nil {
		return hdr, 0, err
	}
	hdr.Seed = int64(unzigzag(seed))
	if hdr.MaxInsts, err = uvarint("max-insts"); err != nil {
		return hdr, 0, err
	}
	if hdr.Count, err = uvarint("count"); err != nil {
		return hdr, 0, err
	}
	if !bytes.Equal(appendHeader(nil, hdr), data[:off]) {
		return hdr, 0, fmt.Errorf("%w: non-canonical header", ErrCorrupt)
	}
	return hdr, off, nil
}

// A cursor is a position in a byte-encoded record stream: the offset of
// the next record and the delta context that decodes it.
type cursor struct {
	data []byte
	off  int
	prev prevState
}

// decode fills dst with the next len(dst) records: the one record
// decoder. It checks every record — opcode, flag bits, lengths and
// varints — and returns ErrCorrupt (wrapped) at the first bad one,
// leaving the cursor where it was.
func (c *cursor) decode(dst []vm.DynInst) error {
	data, off := c.data, c.off
	nextPC, effAddr := c.prev.nextPC, c.prev.effAddr
	for i := range dst {
		if len(data)-off < minRecordBytes {
			return corrupt("short record", off)
		}
		fixed := data[off : off+minRecordBytes : off+minRecordBytes]
		op, flags := isa.Op(fixed[0]), fixed[1]
		if !op.Valid() || flags&flagUnknown != 0 {
			return corrupt("bad opcode or flags", off)
		}
		d := &dst[i]
		d.Op, d.Rd, d.Rs1, d.Rs2 = op, isa.Reg(fixed[2]), isa.Reg(fixed[3]), isa.Reg(fixed[4])
		d.Taken = flags&flagTaken != 0
		off += minRecordBytes
		pc := nextPC
		// Each varint takes its one-byte case — nearly every delta —
		// before binary.Uvarint; written out in place so the loop
		// makes no calls.
		if flags&flagPC != 0 {
			v, n := uint64(0), 0
			if off < len(data) && data[off] < 0x80 {
				v, n = uint64(data[off]), 1
			} else if v, n = binary.Uvarint(data[off:]); n <= 0 {
				return corrupt("bad pc delta", off)
			}
			off += n
			pc += unzigzag(v)
		}
		d.PC = pc
		d.MemSize, d.EffAddr = 0, 0
		if flags&flagMem != 0 {
			if off >= len(data) {
				return corrupt("short mem size", off)
			}
			d.MemSize = data[off]
			off++
			v, n := uint64(0), 0
			if off < len(data) && data[off] < 0x80 {
				v, n = uint64(data[off]), 1
			} else if v, n = binary.Uvarint(data[off:]); n <= 0 {
				return corrupt("bad addr delta", off)
			}
			off += n
			effAddr += unzigzag(v)
			d.EffAddr = effAddr
		}
		nextPC = pc + isa.InstBytes
		if flags&flagNextPC != 0 {
			v, n := uint64(0), 0
			if off < len(data) && data[off] < 0x80 {
				v, n = uint64(data[off]), 1
			} else if v, n = binary.Uvarint(data[off:]); n <= 0 {
				return corrupt("bad next-pc delta", off)
			}
			off += n
			nextPC += unzigzag(v)
		}
		d.NextPC = nextPC
	}
	c.off, c.prev = off, prevState{nextPC: nextPC, effAddr: effAddr}
	return nil
}

// corrupt describes bad input found at byte off. It is kept
// out of line so decode's loop stays tight.
//
//go:noinline
func corrupt(what string, off int) error {
	return fmt.Errorf("%w: %s at byte %d", ErrCorrupt, what, off)
}
