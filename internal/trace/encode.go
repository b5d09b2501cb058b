// Package trace captures and replays the committed-path dynamic
// instruction stream the functional simulator (internal/vm) feeds the
// timing core. Prefetching never alters the committed path, so the
// paper's evaluation matrix — the same workloads under many prefetcher
// configurations — only needs each workload executed once: every other
// cell replays the recorded stream and skips the interpreter entirely.
//
// A recording has one form, in memory as on disk: the record bytes of
// a .psbtrace file, format version 3. Most of a record follows from its
// PC, and its PC from the record before it, so the file header carries
// the program text once, and a per-PC table built from it (program)
// gives every record its kind, opcode, registers, memory size and
// direct branch target. A record keeps only what the text cannot give:
// a conditional branch's outcome (one byte, 0 or 1), a memory op's
// address delta and a JALR's target delta (zigzag varints). ALU ops,
// JMP, JAL and HALT take no bytes. The six benchmarks encode to
// 0.38–1.73 bytes per record at 2M instructions, against 32 for a
// decoded vm.DynInst. The package provides:
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
	"slices"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Format constants. The magic doubles as a version stamp: incompatible
// format changes bump the trailing digits, and a file with another
// magic is rejected as corrupt (and so re-recorded).
const (
	// Magic opens every encoded trace.
	Magic = "PSBTRC03"
	// FileExt is the on-disk trace extension used by Cache.
	FileExt = ".psbtrace"
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

// Record kinds. The program text fixes each instruction's kind, and
// the kind fixes what its records hold beyond the table's template.
const (
	kindEmpty  = iota // ALU op, JMP, JAL, HALT: the template is the record
	kindBranch        // one byte: 0 falls through, 1 takes the branch
	kindMem           // the address, as a zigzag delta from the last memory op's
	kindJALR          // the target, as a zigzag delta from the fall-through
	// kindSpin is an empty instruction that takes one byte, 0: one on a
	// loop of empty instructions, such as a JMP to itself, and one
	// where a run of more than maxEmptyRun empty records would pass
	// through it. So no run of empty records is longer than maxEmptyRun,
	// and a file's record bytes bound its record count linearly.
	kindSpin
)

// maxEmptyRun is the longest run of empty records a program allows
// (program.bound). It sits above the longest run in the six benchmarks,
// 44 records of turb3d's start-up code, so their records take no spin
// byte.
const maxEmptyRun = 64

// A static entry is what every execution of one instruction shares.
type static struct {
	// d is the instruction's record template: vm.Template, with a JMP
	// or JAL taken to its target and a JALR taken to its fall-through
	// address, to which its record adds the target delta.
	d vm.DynInst
	// next is the entry of the instruction at d.NextPC, and jump that
	// of a conditional branch's target; each is nil where control
	// would leave the text. The decoder follows them from record to
	// record instead of looking each PC up.
	next, jump *static
	// target is the NextPC of a taken conditional branch.
	target uint64
	kind   uint8
}

// A program is the text a recording's records are coded against: the
// instructions at [base, base+len(table)*isa.InstBytes) in the
// isa.Marshal form the file header carries, and their static entries.
// It is immutable once built, so replays share it.
type program struct {
	base  uint64
	text  []byte
	table []static
	// maxRun is the longest run of empty records any record stream of
	// the program can hold, at most maxEmptyRun: a run follows the empty
	// instructions' fixed successors and ends at one whose records carry
	// bytes, or where control leaves the text.
	maxRun uint64
}

// staticBytes is the memory one static entry takes.
const staticBytes = uint64(unsafe.Sizeof(static{}))

// newProgram builds the per-PC table of the program whose text, in
// isa.Marshal form, is loaded at base. Each entry's template starts
// from the vm.Template the interpreter starts that instruction's
// records from, and appendRecord checks every record against it.
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
		switch {
		case in.Op == isa.JALR:
			s.kind, s.d.Taken = kindJALR, true
		case in.Op.IsJump():
			s.d.Taken, s.d.NextPC = true, s.target
		case in.Op.IsBranch():
			s.kind, s.jump = kindBranch, p.at(s.target)
		case in.Op.IsMem():
			s.kind = kindMem
		}
		s.next = p.at(s.d.NextPC)
	}
	p.bound()
	return p, nil
}

// index returns the table index of the instruction at pc, or -1 when
// pc is not an instruction address of the program.
func (p *program) index(pc uint64) int {
	if k := (pc - p.base) / isa.InstBytes; (pc-p.base)%isa.InstBytes == 0 && k < uint64(len(p.table)) {
		return int(k)
	}
	return -1
}

// at returns the static entry of the instruction at pc, or nil when pc
// is not an instruction address of the program.
func (p *program) at(pc uint64) *static {
	if k := p.index(pc); k >= 0 {
		return &p.table[k]
	}
	return nil
}

// bound follows every empty instruction's fixed successor: it makes
// each one on a loop of empty instructions a kindSpin, and each one a
// run of more than maxEmptyRun empty records would pass through, and
// sets maxRun.
func (p *program) bound() {
	// run[k] is 1 plus the longest run of empty records from
	// instruction k once known, -1 while k is on the path being
	// followed, and 0 before.
	run := make([]int, len(p.table))
	var path []int
	for i := range p.table {
		path = path[:0]
		k := i
		for k >= 0 && run[k] == 0 {
			if p.table[k].kind != kindEmpty {
				run[k] = 1
				break
			}
			run[k] = -1
			path = append(path, k)
			k = p.index(p.table[k].d.NextPC)
		}
		n := 0 // the run from k
		switch {
		case k >= 0 && run[k] < 0:
			// The path closed a loop at k.
			loop := slices.Index(path, k)
			for _, j := range path[loop:] {
				p.table[j].kind, run[j] = kindSpin, 1
			}
			path = path[:loop]
		case k >= 0:
			n = run[k] - 1
		}
		for j := len(path) - 1; j >= 0; j-- {
			if n == maxEmptyRun {
				// A longer run would pass through path[j].
				p.table[path[j]].kind, run[path[j]], n = kindSpin, 1, 0
				continue
			}
			n++
			run[path[j]] = n + 1
			p.maxRun = max(p.maxRun, uint64(n))
		}
	}
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

// size is the memory the program holds: its text and its table.
func (p *program) size() uint64 {
	if p == nil {
		return 0
	}
	return uint64(len(p.text)) + uint64(len(p.table))*staticBytes
}

// prevState is the delta-encoding context the encoder and the decoder
// carry from record to record: the PC of the next record, and the
// address of the last memory op.
type prevState struct {
	nextPC  uint64
	effAddr uint64
}

// start is the delta context of a recording's first record: the
// program starts at its first instruction.
func (p *program) start() prevState {
	return prevState{nextPC: p.base}
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
// decoder rebuilds a record from its instruction's static entry and
// what the record's kind adds, so appendRecord refuses, with an error
// and b and prev unchanged, a record that it would not rebuild
// exactly: one whose PC is not the previous record's NextPC or not in
// the program, or whose fields are not those the program gives that PC.
func appendRecord(b []byte, prev *prevState, p *program, d *vm.DynInst) ([]byte, error) {
	if d.PC != prev.nextPC {
		return b, fmt.Errorf("trace: record at PC %#x does not follow the previous record's next PC %#x", d.PC, prev.nextPC)
	}
	s := p.at(d.PC)
	if s == nil {
		return b, fmt.Errorf("trace: record at PC %#x lies outside the program text [%#x,%#x)",
			d.PC, p.base, p.base+uint64(len(p.table))*isa.InstBytes)
	}
	want := s.d
	switch s.kind {
	case kindBranch:
		if d.Taken {
			want.Taken, want.NextPC = true, s.target
		}
	case kindMem:
		want.EffAddr = d.EffAddr
	case kindJALR:
		want.NextPC = d.NextPC
	}
	if *d != want {
		return b, fmt.Errorf("trace: record %+v does not match the program's %v at PC %#x", *d, s.d.Op, d.PC)
	}
	switch s.kind {
	case kindBranch:
		var taken byte
		if d.Taken {
			taken = 1
		}
		b = append(b, taken)
	case kindMem:
		b = binary.AppendUvarint(b, zigzag(d.EffAddr-prev.effAddr))
		prev.effAddr = d.EffAddr
	case kindJALR:
		b = binary.AppendUvarint(b, zigzag(d.NextPC-s.d.NextPC))
	case kindSpin:
		b = append(b, 0)
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

// maxRecordBytes is the longest encoded record: one varint.
const maxRecordBytes = binary.MaxVarintLen64

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
// decoder. It checks every record — its PC against the program text
// and the bytes its kind takes — and returns ErrCorrupt (wrapped) at
// the first bad one, leaving the cursor where it was.
func (c *cursor) decode(dst []vm.DynInst) error {
	if len(dst) == 0 {
		return nil // an empty recording may have no program
	}
	data, off, effAddr := c.data, c.off, c.prev.effAddr
	s := c.prog.at(c.prev.nextPC)
	for i := range dst {
		if s == nil {
			return corrupt("pc outside the program text", off)
		}
		d := &dst[i]
		*d = s.d
		next := s.next
		// A varint takes its one-byte case — nearly every delta —
		// before binary.Uvarint; written out in place so the loop
		// makes no calls on the common path.
		switch s.kind {
		case kindEmpty:
		case kindMem:
			v, n := uint64(0), 0
			if off < len(data) && data[off] < 0x80 {
				v, n = uint64(data[off]), 1
			} else if v, n = binary.Uvarint(data[off:]); n <= 0 {
				return corrupt("bad addr delta", off)
			}
			off += n
			effAddr += unzigzag(v)
			d.EffAddr = effAddr
		case kindBranch:
			if off >= len(data) || data[off] > 1 {
				return corrupt("bad branch outcome", off)
			}
			if data[off] != 0 {
				d.Taken, d.NextPC, next = true, s.target, s.jump
			}
			off++
		case kindJALR:
			v, n := uint64(0), 0
			if off < len(data) && data[off] < 0x80 {
				v, n = uint64(data[off]), 1
			} else if v, n = binary.Uvarint(data[off:]); n <= 0 {
				return corrupt("bad jump target", off)
			}
			off += n
			d.NextPC += unzigzag(v)
			next = c.prog.at(d.NextPC)
		case kindSpin:
			if off >= len(data) || data[off] != 0 {
				return corrupt("bad loop byte", off)
			}
			off++
		}
		s = next
	}
	c.off, c.prev = off, prevState{nextPC: dst[len(dst)-1].NextPC, effAddr: effAddr}
	return nil
}

// corrupt describes bad input found at byte off. It is kept
// out of line so decode's loop stays tight.
//
//go:noinline
func corrupt(what string, off int) error {
	return fmt.Errorf("%w: %s at byte %d", ErrCorrupt, what, off)
}
