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

// Machine is the functional interpreter state.
type Machine struct {
	Mem      *GuestMem
	IntReg   [isa.NumIntRegs]uint64
	FPReg    [isa.NumFPRegs]float64
	PC       uint64
	TextBase uint64

	prog   []isa.Instr
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
	return &Machine{
		Mem:      mem,
		PC:       DefaultTextBase,
		TextBase: DefaultTextBase,
		prog:     prog,
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
	if m.halted {
		return DynInst{}, ErrHalted
	}
	in, err := m.InstrAt(m.PC)
	if err != nil {
		return DynInst{}, err
	}

	s1, s2 := in.Srcs()
	d := DynInst{
		PC:  m.PC,
		Op:  in.Op,
		Rd:  in.Dst(),
		Rs1: s1,
		Rs2: s2,
	}
	next := m.PC + isa.InstBytes

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true

	case isa.ADD:
		m.writeInt(in.Rd, m.readInt(in.Rs1)+m.readInt(in.Rs2))
	case isa.SUB:
		m.writeInt(in.Rd, m.readInt(in.Rs1)-m.readInt(in.Rs2))
	case isa.AND:
		m.writeInt(in.Rd, m.readInt(in.Rs1)&m.readInt(in.Rs2))
	case isa.OR:
		m.writeInt(in.Rd, m.readInt(in.Rs1)|m.readInt(in.Rs2))
	case isa.XOR:
		m.writeInt(in.Rd, m.readInt(in.Rs1)^m.readInt(in.Rs2))
	case isa.SHL:
		m.writeInt(in.Rd, m.readInt(in.Rs1)<<(m.readInt(in.Rs2)&63))
	case isa.SHR:
		m.writeInt(in.Rd, m.readInt(in.Rs1)>>(m.readInt(in.Rs2)&63))
	case isa.SLT:
		m.writeInt(in.Rd, boolToU64(int64(m.readInt(in.Rs1)) < int64(m.readInt(in.Rs2))))

	case isa.ADDI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)+uint64(int64(in.Imm)))
	case isa.ANDI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)&uint64(int64(in.Imm)))
	case isa.ORI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)|uint64(int64(in.Imm)))
	case isa.XORI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)^uint64(int64(in.Imm)))
	case isa.SHLI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)<<(uint32(in.Imm)&63))
	case isa.SHRI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)>>(uint32(in.Imm)&63))
	case isa.SLTI:
		m.writeInt(in.Rd, boolToU64(int64(m.readInt(in.Rs1)) < int64(in.Imm)))
	case isa.LUI:
		m.writeInt(in.Rd, uint64(int64(in.Imm)<<16))

	case isa.MUL:
		m.writeInt(in.Rd, m.readInt(in.Rs1)*m.readInt(in.Rs2))
	case isa.DIV:
		a, b := int64(m.readInt(in.Rs1)), int64(m.readInt(in.Rs2))
		if b == 0 {
			m.writeInt(in.Rd, 0)
		} else {
			m.writeInt(in.Rd, uint64(a/b))
		}
	case isa.REM:
		a, b := int64(m.readInt(in.Rs1)), int64(m.readInt(in.Rs2))
		if b == 0 {
			m.writeInt(in.Rd, 0)
		} else {
			m.writeInt(in.Rd, uint64(a%b))
		}

	case isa.LD, isa.LW, isa.LB, isa.FLD:
		addr := m.readInt(in.Rs1) + uint64(int64(in.Imm))
		d.EffAddr = addr
		d.MemSize = uint8(in.Op.MemBytes())
		switch in.Op {
		case isa.LD:
			m.writeInt(in.Rd, m.Mem.Read64(addr))
		case isa.LW:
			m.writeInt(in.Rd, uint64(m.Mem.Read32(addr)))
		case isa.LB:
			m.writeInt(in.Rd, uint64(m.Mem.LoadByte(addr)))
		case isa.FLD:
			m.writeFP(in.Rd, m.Mem.ReadFloat(addr))
		}

	case isa.ST, isa.SW, isa.SB, isa.FST:
		addr := m.readInt(in.Rs1) + uint64(int64(in.Imm))
		d.EffAddr = addr
		d.MemSize = uint8(in.Op.MemBytes())
		switch in.Op {
		case isa.ST:
			m.Mem.Write64(addr, m.readInt(in.Rs2))
		case isa.SW:
			m.Mem.Write32(addr, uint32(m.readInt(in.Rs2)))
		case isa.SB:
			m.Mem.StoreByte(addr, byte(m.readInt(in.Rs2)))
		case isa.FST:
			m.Mem.WriteFloat(addr, m.readFP(in.Rs2))
		}

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		a, b := int64(m.readInt(in.Rs1)), int64(m.readInt(in.Rs2))
		var take bool
		switch in.Op {
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
			next = m.PC + isa.InstBytes + uint64(int64(in.Imm))*isa.InstBytes
			d.Taken = true
		}

	case isa.JMP:
		next = m.PC + isa.InstBytes + uint64(int64(in.Imm))*isa.InstBytes
		d.Taken = true
	case isa.JAL:
		m.writeInt(in.Rd, m.PC+isa.InstBytes)
		next = m.PC + isa.InstBytes + uint64(int64(in.Imm))*isa.InstBytes
		d.Taken = true
	case isa.JALR:
		target := m.readInt(in.Rs1)
		m.writeInt(in.Rd, m.PC+isa.InstBytes)
		next = target
		d.Taken = true

	case isa.FADD:
		m.writeFP(in.Rd, m.readFP(in.Rs1)+m.readFP(in.Rs2))
	case isa.FSUB:
		m.writeFP(in.Rd, m.readFP(in.Rs1)-m.readFP(in.Rs2))
	case isa.FMUL:
		m.writeFP(in.Rd, m.readFP(in.Rs1)*m.readFP(in.Rs2))
	case isa.FDIV:
		m.writeFP(in.Rd, m.readFP(in.Rs1)/m.readFP(in.Rs2))
	case isa.FITOF:
		m.writeFP(in.Rd, float64(int64(m.readInt(in.Rs1))))
	case isa.FFTOI:
		m.writeInt(in.Rd, uint64(int64(m.readFP(in.Rs1))))

	default:
		return DynInst{}, fmt.Errorf("vm: unimplemented opcode %v at PC %#x", in.Op, m.PC)
	}

	d.NextPC = next
	m.PC = next
	m.seq++
	return d, nil
}

// Run executes up to max instructions (0 means until HALT) and returns
// the number executed. It is a convenience for functional tests; the
// timing simulator calls Step directly.
func (m *Machine) Run(max uint64) (uint64, error) {
	var n uint64
	for !m.halted && (max == 0 || n < max) {
		if _, err := m.Step(); err != nil {
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
