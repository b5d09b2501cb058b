// Package vm implements the functional simulator for the guest ISA.
//
// The Machine interprets a guest program instruction by instruction and
// emits one DynInst record per executed instruction: the dynamic
// instruction stream consumed by the timing simulator (internal/cpu).
// Functional execution is exact and deterministic; all timing concerns
// (caches, buses, out-of-order issue) live elsewhere.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// DefaultTextBase is where program text is loaded unless overridden.
// Keeping text away from address zero lets workloads treat low memory
// as an unmapped guard region.
const DefaultTextBase = 0x0000_0000_0001_0000

// DynInst is one executed (committed-path) dynamic instruction. The
// three 8-byte fields come first so the record packs into 32 bytes. It
// carries no sequence number: a record's position in the stream is its
// number, and the timing core numbers instructions itself.
type DynInst struct {
	PC      uint64  // byte address of the instruction
	EffAddr uint64  // effective address for memory ops
	NextPC  uint64  // address of the next executed instruction
	Op      isa.Op  // opcode
	Rd      isa.Reg // destination register or RegNone
	Rs1     isa.Reg // first source or RegNone
	Rs2     isa.Reg // second source or RegNone
	MemSize uint8   // access size in bytes for memory ops
	Taken   bool    // for CTIs: whether control left the fall-through path
}

// IsLoad reports whether the instruction reads guest memory.
func (d *DynInst) IsLoad() bool { return d.Op.IsLoad() }

// IsStore reports whether the instruction writes guest memory.
func (d *DynInst) IsStore() bool { return d.Op.IsStore() }

// IsCTI reports whether the instruction is a control transfer.
func (d *DynInst) IsCTI() bool { return d.Op.IsCTI() }

// ErrHalted is returned by Step once the program has executed HALT.
var ErrHalted = errors.New("vm: program halted")

// Template returns the record every execution of in at pc starts
// from: PC, Op, Rd, Rs1, Rs2 and MemSize as Step emits them, NextPC the
// fall-through address, EffAddr 0 and Taken false. Step fills in the
// rest: a memory op's address, and a taken control transfer's target.
func Template(pc uint64, in isa.Instr) DynInst {
	s1, s2 := in.Srcs()
	return DynInst{
		PC:      pc,
		NextPC:  pc + isa.InstBytes,
		Op:      in.Op,
		Rd:      in.Dst(),
		Rs1:     s1,
		Rs2:     s2,
		MemSize: uint8(in.Op.MemBytes()),
	}
}

// A predecoded instruction: its record template and the operands the
// opcode's dynamic work reads.
type predecoded struct {
	d            DynInst // Template of the instruction at its PC
	rd, rs1, rs2 isa.Reg
	imm          uint64 // the immediate, sign-extended
}

// Machine is the functional interpreter state.
type Machine struct {
	Mem      *GuestMem
	IntReg   [isa.NumIntRegs]uint64
	FPReg    [isa.NumFPRegs]float64
	PC       uint64
	TextBase uint64

	prog   []isa.Instr
	code   []predecoded // prog, predecoded at TextBase
	seq    uint64
	halted bool
}

// New creates a Machine with the program loaded at DefaultTextBase and
// the PC at its first instruction. Memory may be pre-populated by the
// caller (workload heap setup) before stepping.
func New(prog []isa.Instr, mem *GuestMem) *Machine {
	if mem == nil {
		mem = NewGuestMem()
	}
	code := make([]predecoded, len(prog))
	for i, in := range prog {
		code[i] = predecoded{
			d:  Template(DefaultTextBase+uint64(i)*isa.InstBytes, in),
			rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2,
			imm: uint64(int64(in.Imm)),
		}
	}
	return &Machine{
		Mem:      mem,
		PC:       DefaultTextBase,
		TextBase: DefaultTextBase,
		prog:     prog,
		code:     code,
	}
}

// Halted reports whether the program has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Executed returns the number of instructions executed so far.
func (m *Machine) Executed() uint64 { return m.seq }

// TextLimit returns the first byte address past the program text.
func (m *Machine) TextLimit() uint64 {
	return m.TextBase + uint64(len(m.prog))*isa.InstBytes
}

// InstrAt returns the static instruction at byte address pc.
func (m *Machine) InstrAt(pc uint64) (isa.Instr, error) {
	if pc < m.TextBase || pc >= m.TextLimit() || (pc-m.TextBase)%isa.InstBytes != 0 {
		return isa.Instr{}, fmt.Errorf("vm: PC %#x outside text [%#x,%#x)",
			pc, m.TextBase, m.TextLimit())
	}
	return m.prog[(pc-m.TextBase)/isa.InstBytes], nil
}

func (m *Machine) readInt(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	return m.IntReg[r]
}

func (m *Machine) writeInt(r isa.Reg, v uint64) {
	if r != isa.R0 && r != isa.RegNone {
		m.IntReg[r] = v
	}
}

func (m *Machine) readFP(r isa.Reg) float64 { return m.FPReg[r-isa.NumIntRegs] }

func (m *Machine) writeFP(r isa.Reg, v float64) { m.FPReg[r-isa.NumIntRegs] = v }

// Step executes one instruction and returns its DynInst record.
// After HALT has executed, Step returns ErrHalted.
func (m *Machine) Step() (DynInst, error) {
	var d DynInst
	if err := m.StepInto(&d); err != nil {
		return DynInst{}, err
	}
	return d, nil
}

// StepInto executes one instruction and writes its DynInst record to
// *d, so a caller collecting records writes each in place. After HALT
// has executed, StepInto returns ErrHalted. On an error the machine is
// unchanged and *d holds no record.
func (m *Machine) StepInto(d *DynInst) error {
	if m.halted {
		return ErrHalted
	}
	k := (m.PC - m.TextBase) / isa.InstBytes
	if (m.PC-m.TextBase)%isa.InstBytes != 0 || k >= uint64(len(m.code)) {
		_, err := m.InstrAt(m.PC)
		return err
	}
	in := &m.code[k]
	*d = in.d

	switch in.d.Op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true

	case isa.ADD:
		m.writeInt(in.rd, m.readInt(in.rs1)+m.readInt(in.rs2))
	case isa.SUB:
		m.writeInt(in.rd, m.readInt(in.rs1)-m.readInt(in.rs2))
	case isa.AND:
		m.writeInt(in.rd, m.readInt(in.rs1)&m.readInt(in.rs2))
	case isa.OR:
		m.writeInt(in.rd, m.readInt(in.rs1)|m.readInt(in.rs2))
	case isa.XOR:
		m.writeInt(in.rd, m.readInt(in.rs1)^m.readInt(in.rs2))
	case isa.SHL:
		m.writeInt(in.rd, m.readInt(in.rs1)<<(m.readInt(in.rs2)&63))
	case isa.SHR:
		m.writeInt(in.rd, m.readInt(in.rs1)>>(m.readInt(in.rs2)&63))
	case isa.SLT:
		m.writeInt(in.rd, boolToU64(int64(m.readInt(in.rs1)) < int64(m.readInt(in.rs2))))

	case isa.ADDI:
		m.writeInt(in.rd, m.readInt(in.rs1)+in.imm)
	case isa.ANDI:
		m.writeInt(in.rd, m.readInt(in.rs1)&in.imm)
	case isa.ORI:
		m.writeInt(in.rd, m.readInt(in.rs1)|in.imm)
	case isa.XORI:
		m.writeInt(in.rd, m.readInt(in.rs1)^in.imm)
	case isa.SHLI:
		m.writeInt(in.rd, m.readInt(in.rs1)<<(in.imm&63))
	case isa.SHRI:
		m.writeInt(in.rd, m.readInt(in.rs1)>>(in.imm&63))
	case isa.SLTI:
		m.writeInt(in.rd, boolToU64(int64(m.readInt(in.rs1)) < int64(in.imm)))
	case isa.LUI:
		m.writeInt(in.rd, in.imm<<16)

	case isa.MUL:
		m.writeInt(in.rd, m.readInt(in.rs1)*m.readInt(in.rs2))
	case isa.DIV:
		a, b := int64(m.readInt(in.rs1)), int64(m.readInt(in.rs2))
		if b == 0 {
			m.writeInt(in.rd, 0)
		} else {
			m.writeInt(in.rd, uint64(a/b))
		}
	case isa.REM:
		a, b := int64(m.readInt(in.rs1)), int64(m.readInt(in.rs2))
		if b == 0 {
			m.writeInt(in.rd, 0)
		} else {
			m.writeInt(in.rd, uint64(a%b))
		}

	case isa.LD:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.writeInt(in.rd, m.Mem.Read64(d.EffAddr))
	case isa.LW:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.writeInt(in.rd, uint64(m.Mem.Read32(d.EffAddr)))
	case isa.LB:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.writeInt(in.rd, uint64(m.Mem.LoadByte(d.EffAddr)))
	case isa.FLD:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.writeFP(in.rd, m.Mem.ReadFloat(d.EffAddr))

	case isa.ST:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.Mem.Write64(d.EffAddr, m.readInt(in.rs2))
	case isa.SW:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.Mem.Write32(d.EffAddr, uint32(m.readInt(in.rs2)))
	case isa.SB:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.Mem.StoreByte(d.EffAddr, byte(m.readInt(in.rs2)))
	case isa.FST:
		d.EffAddr = m.readInt(in.rs1) + in.imm
		m.Mem.WriteFloat(d.EffAddr, m.readFP(in.rs2))

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		a, b := int64(m.readInt(in.rs1)), int64(m.readInt(in.rs2))
		var take bool
		switch in.d.Op {
		case isa.BEQ:
			take = a == b
		case isa.BNE:
			take = a != b
		case isa.BLT:
			take = a < b
		case isa.BGE:
			take = a >= b
		}
		if take {
			d.NextPC += in.imm * isa.InstBytes
			d.Taken = true
		}

	case isa.JMP:
		d.NextPC += in.imm * isa.InstBytes
		d.Taken = true
	case isa.JAL:
		m.writeInt(in.rd, d.NextPC)
		d.NextPC += in.imm * isa.InstBytes
		d.Taken = true
	case isa.JALR:
		target := m.readInt(in.rs1)
		m.writeInt(in.rd, d.NextPC)
		d.NextPC = target
		d.Taken = true

	case isa.FADD:
		m.writeFP(in.rd, m.readFP(in.rs1)+m.readFP(in.rs2))
	case isa.FSUB:
		m.writeFP(in.rd, m.readFP(in.rs1)-m.readFP(in.rs2))
	case isa.FMUL:
		m.writeFP(in.rd, m.readFP(in.rs1)*m.readFP(in.rs2))
	case isa.FDIV:
		m.writeFP(in.rd, m.readFP(in.rs1)/m.readFP(in.rs2))
	case isa.FITOF:
		m.writeFP(in.rd, float64(int64(m.readInt(in.rs1))))
	case isa.FFTOI:
		m.writeInt(in.rd, uint64(int64(m.readFP(in.rs1))))

	default:
		return fmt.Errorf("vm: unimplemented opcode %v at PC %#x", in.d.Op, m.PC)
	}

	m.PC = d.NextPC
	m.seq++
	return nil
}

// Run executes up to max instructions (0 means until HALT) and returns
// the number executed. It is a convenience for functional tests and
// examples; instruction sources step the machine through StepInto.
func (m *Machine) Run(max uint64) (uint64, error) {
	var n uint64
	var d DynInst
	for !m.halted && (max == 0 || n < max) {
		if err := m.StepInto(&d); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
