// Package trace captures and replays the committed-path dynamic
// instruction stream the functional simulator (internal/vm) feeds the
// timing core. Prefetching never alters the committed path, so the
// paper's evaluation matrix — the same workloads under many prefetcher
// configurations — only needs each workload executed once: every other
// cell replays the recorded stream and skips the interpreter entirely.
//
// A recording has one form, in memory as on disk: the record bytes of
// a .psbtrace file, format version 2. Most of a record follows from its
// PC, so the file header carries the program text once, and a per-PC
// table built from it (program) gives every record its opcode,
// registers, memory size and direct branch target. A record keeps only
// what the text cannot give: one flags byte (the branch outcome, the
// record's kind, and whether the PC breaks from the previous record's
// NextPC) plus zigzag varints for a memory op's address delta and a
// JALR's target. The six benchmarks encode to 1.34–2.70 bytes per
// record at 2M instructions, against 32 for a decoded vm.DynInst and
// 5.6–7.3 in version 1, which stored every field in every record. The
// package provides:
//
//   - one record encoder (appendRecord), through which the recorder
//     appends every stepped instruction and which refuses a record the
//     program cannot reproduce, and one checked batch decoder
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
	"unsafe"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Format constants. The magic doubles as a version stamp: incompatible
// format changes bump the trailing digits, and a file with another
// magic is rejected as corrupt (and so re-recorded).
const (
	// Magic opens every encoded trace.
	Magic = "PSBTRC02"
	// FileExt is the on-disk trace extension used by Cache.
	FileExt = ".psbtrace"
)

// Per-record flag bits. Every other field of a record follows from its
// PC through the program table, or is one of the varints the flags
// announce, so a record is its flags byte plus those varints. The kind
// bits (flagMem, flagIndirect) repeat what the table says about the
// instruction: decoding branches on the byte it has just read instead
// of waiting for the table entry, and the decoder rejects a record
// whose kind bits or taken bit its instruction cannot have, and any
// other bit.
const (
	flagTaken    = 1 << 0 // control left the fall-through path
	flagPC       = 1 << 1 // PC != previous NextPC: a PC delta follows
	flagMem      = 1 << 2 // a memory op: an address delta follows
	flagIndirect = 1 << 3 // a JALR: a jump-target delta follows
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

// A static entry is what every execution of one instruction shares.
type static struct {
	// d is the instruction's record template (vm.Template): the
	// dynamic fields at their common values.
	d vm.DynInst
	// target is NextPC when the record's taken bit is set: the direct
	// target of a branch, JMP or JAL, and the fall-through address of a
	// JALR, whose record adds its target as a delta from it.
	target uint64
	// A record's flags are valid for this instruction iff
	// flags&mask == want: the kind bits match the instruction, and the
	// taken bit is free on a conditional branch, always set on a jump
	// and never set otherwise.
	mask, want byte
}

// A program is the text a recording's records are coded against: the
// instructions at [base, base+len(table)*isa.InstBytes) in the
// isa.Marshal form the file header carries, and their static entries.
// It is immutable once built, so replays share it.
type program struct {
	base  uint64
	text  []byte
	table []static
}

// staticBytes is the memory one static entry takes.
const staticBytes = uint64(unsafe.Sizeof(static{}))

// newProgram builds the per-PC table of the program whose text, in
// isa.Marshal form, is loaded at base. Each entry's record is the
// vm.Template the interpreter starts that instruction's records from,
// and appendRecord checks every record against it.
func newProgram(base uint64, text []byte) (*program, error) {
	instrs, err := isa.Unmarshal(text)
	if err != nil {
		return nil, err
	}
	p := &program{base: base, text: text, table: make([]static, len(instrs))}
	for i, in := range instrs {
		pc := base + uint64(i)*isa.InstBytes
		s := &p.table[i]
		s.d = vm.Template(pc, in)
		s.target = pc + isa.InstBytes + uint64(int64(in.Imm))*isa.InstBytes
		s.mask = ^byte(flagPC)
		switch {
		case in.Op == isa.JALR:
			s.target, s.want = pc+isa.InstBytes, flagTaken|flagIndirect
		case in.Op.IsJump():
			s.want = flagTaken
		case in.Op.IsBranch():
			s.mask &^= flagTaken
		case in.Op.IsMem():
			s.want = flagMem
		}
	}
	return p, nil
}

// programOf reads m's text through InstrAt over [TextBase, TextLimit).
// The functional simulator cannot write its text, so one read serves
// every record the machine steps.
func programOf(m *vm.Machine) (*program, error) {
	instrs := make([]isa.Instr, 0, (m.TextLimit()-m.TextBase)/isa.InstBytes)
	for pc := m.TextBase; pc < m.TextLimit(); pc += isa.InstBytes {
		in, err := m.InstrAt(pc)
		if err != nil {
			return nil, err
		}
		instrs = append(instrs, in)
	}
	return newProgram(m.TextBase, isa.Marshal(instrs))
}

// at returns the static entry of the instruction at pc, or nil when pc
// is not an instruction address of the program.
func (p *program) at(pc uint64) *static {
	if k := (pc - p.base) / isa.InstBytes; (pc-p.base)%isa.InstBytes == 0 && k < uint64(len(p.table)) {
		return &p.table[k]
	}
	return nil
}

// size is the memory the program holds: its text and its table.
func (p *program) size() uint64 {
	if p == nil {
		return 0
	}
	return uint64(len(p.text)) + uint64(len(p.table))*staticBytes
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

// appendHeader appends the encoding of hdr and p, magic included, to
// b: the identifying fields, then the text base, the instruction count
// and the text.
func appendHeader(b []byte, hdr Header, p *program) []byte {
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
	b = binary.AppendUvarint(b, hdr.Count)
	b = binary.AppendUvarint(b, p.base)
	b = binary.AppendUvarint(b, uint64(len(p.table)))
	return append(b, p.text...)
}

// appendRecord appends the encoding of d to b and advances the delta
// context: the one record encoder, used by every recording. The
// decoder rebuilds a record from its instruction's static entry, its
// flags and its varints, so appendRecord refuses, with an error and
// b and prev unchanged, a record that it would not rebuild exactly:
// one whose PC is not in the program, or whose fields are not those
// the program gives that PC.
func appendRecord(b []byte, prev *prevState, p *program, d *vm.DynInst) ([]byte, error) {
	s := p.at(d.PC)
	if s == nil {
		return b, fmt.Errorf("trace: record at PC %#x lies outside the program text [%#x,%#x)",
			d.PC, p.base, p.base+uint64(len(p.table))*isa.InstBytes)
	}
	// Branch outcomes follow the guest's data, so the taken bit selects
	// the expected NextPC by index rather than by a branch.
	var taken byte
	if d.Taken {
		taken = flagTaken
	}
	flags := s.want&^flagTaken | taken
	if d.PC != prev.nextPC {
		flags |= flagPC
	}
	next := [2]uint64{s.d.NextPC, s.target}[taken]
	if flags&flagIndirect != 0 {
		next = d.NextPC
	}
	var addr uint64
	if flags&flagMem != 0 {
		addr = d.EffAddr
	}
	if flags&s.mask != s.want || d.NextPC != next || d.EffAddr != addr || d.Op != s.d.Op ||
		d.Rd != s.d.Rd || d.Rs1 != s.d.Rs1 || d.Rs2 != s.d.Rs2 || d.MemSize != s.d.MemSize {
		return b, fmt.Errorf("trace: record %+v does not match the program's %v at PC %#x", *d, s.d.Op, d.PC)
	}
	b = append(b, flags)
	if flags&flagPC != 0 {
		b = binary.AppendUvarint(b, zigzag(d.PC-prev.nextPC))
	}
	if flags&flagMem != 0 {
		b = binary.AppendUvarint(b, zigzag(d.EffAddr-prev.effAddr))
		prev.effAddr = d.EffAddr
	}
	if flags&flagIndirect != 0 {
		b = binary.AppendUvarint(b, zigzag(d.NextPC-s.target))
	}
	prev.nextPC = d.NextPC
	return b, nil
}

// writeFile writes a .psbtrace file: the header with the recording's
// program, then the record bytes of each chunk in turn, unchanged.
func writeFile(w io.Writer, hdr Header, rec *recording) error {
	if _, err := w.Write(appendHeader(nil, hdr, rec.prog)); err != nil {
		return err
	}
	for _, c := range rec.chunks {
		if _, err := w.Write(c.data); err != nil {
			return err
		}
	}
	return nil
}

// ErrCorrupt reports malformed encoded input: a bad header or program
// text, a bad record, a record count the bytes cannot hold, or bytes
// after the last record. A file of another format version is corrupt
// too. Decoding never panics on such input, which the fuzz target
// enforces.
var ErrCorrupt = errors.New("trace: corrupt stream")

// maxWorkloadName bounds the header's workload-name length so a
// corrupt header cannot demand an absurd allocation.
const maxWorkloadName = 256

// minRecordBytes is the shortest encoded record: its flags byte. n
// bytes of input therefore hold at most n/minRecordBytes records,
// whatever the header's Count claims.
const minRecordBytes = 1

// maxRecordBytes is the longest encoded record: its flags byte and
// three varints.
const maxRecordBytes = 1 + 3*binary.MaxVarintLen64

// parseHeader decodes the header at the start of data and returns it
// with its program and the offset of the first record. The program's
// text aliases data. A header is accepted only in the exact form
// appendHeader writes, so an accepted file stores back to identical
// bytes.
func parseHeader(data []byte) (Header, *program, int, error) {
	var hdr Header
	if len(data) < len(Magic)+1 || string(data[:len(Magic)]) != Magic {
		return hdr, nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
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
		return hdr, nil, 0, err
	}
	if nameLen > maxWorkloadName || nameLen > uint64(len(data)-off) {
		return hdr, nil, 0, fmt.Errorf("%w: bad workload name length", ErrCorrupt)
	}
	hdr.Workload = string(data[off : off+int(nameLen)])
	off += int(nameLen)
	seed, err := uvarint("seed")
	if err != nil {
		return hdr, nil, 0, err
	}
	hdr.Seed = int64(unzigzag(seed))
	if hdr.MaxInsts, err = uvarint("max-insts"); err != nil {
		return hdr, nil, 0, err
	}
	if hdr.Count, err = uvarint("count"); err != nil {
		return hdr, nil, 0, err
	}
	base, err := uvarint("text base")
	if err != nil {
		return hdr, nil, 0, err
	}
	n, err := uvarint("text length")
	if err != nil {
		return hdr, nil, 0, err
	}
	if n > uint64(len(data)-off)/isa.EncodedBytes {
		return hdr, nil, 0, fmt.Errorf("%w: %d instructions cannot fit in %d bytes", ErrCorrupt, n, len(data)-off)
	}
	end := off + int(n)*isa.EncodedBytes
	p, err := newProgram(base, data[off:end:end])
	if err != nil {
		return hdr, nil, 0, fmt.Errorf("%w: program text: %v", ErrCorrupt, err)
	}
	off = end
	if !bytes.Equal(appendHeader(nil, hdr, p), data[:off]) {
		return hdr, nil, 0, fmt.Errorf("%w: non-canonical header", ErrCorrupt)
	}
	return hdr, p, off, nil
}

// A cursor is a position in a byte-encoded record stream: the offset of
// the next record, the delta context that decodes it and the program
// the records are coded against.
type cursor struct {
	data []byte
	off  int
	prev prevState
	prog *program
}

// decode fills dst with the next len(dst) records: the one record
// decoder. It checks every record — its PC against the program text,
// its flag bits against the instruction there, and its varints — and
// returns ErrCorrupt (wrapped) at the first bad one, leaving the cursor
// where it was.
func (c *cursor) decode(dst []vm.DynInst) error {
	if len(dst) == 0 {
		return nil // an empty recording may have no program
	}
	data, off := c.data, c.off
	base, table := c.prog.base, c.prog.table
	nextPC, effAddr := c.prev.nextPC, c.prev.effAddr
	for i := range dst {
		if off >= len(data) {
			return corrupt("short record", off)
		}
		flags := data[off]
		off++
		pc := nextPC
		// Each varint takes its one-byte case — nearly every delta —
		// before binary.Uvarint; written out in place so the loop
		// makes no calls on the common path.
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
		k := (pc - base) / isa.InstBytes
		if (pc-base)%isa.InstBytes != 0 || k >= uint64(len(table)) {
			return corrupt("pc outside the program text", off)
		}
		s := &table[k]
		if flags&s.mask != s.want {
			return corrupt("flags do not fit the instruction", off)
		}
		d := &dst[i]
		*d = s.d
		if flags&flagMem != 0 {
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
		// The flag bits, read from the stream, decide the next PC, so
		// a fall-through record never waits on its table entry to
		// find where the next one is.
		nextPC = pc + isa.InstBytes
		if flags&flagTaken != 0 {
			d.Taken, nextPC = true, s.target
			if flags&flagIndirect != 0 {
				v, n := uint64(0), 0
				if off < len(data) && data[off] < 0x80 {
					v, n = uint64(data[off]), 1
				} else if v, n = binary.Uvarint(data[off:]); n <= 0 {
					return corrupt("bad jump target", off)
				}
				off += n
				nextPC += unzigzag(v)
			}
			d.NextPC = nextPC
		}
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
