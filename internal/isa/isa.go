// Package isa defines the guest instruction set executed by the
// functional simulator and modeled by the timing simulator.
//
// The ISA is a small 64-bit RISC machine in the style of the DEC Alpha
// used by the original paper: fixed 4-byte instructions, 32 integer
// registers (R0 hardwired to zero), 32 floating-point registers, and a
// load/store architecture. It is deliberately minimal — just enough to
// express the paper's six benchmark behaviours (pointer chasing, strided
// array sweeps, mixed integer/FP arithmetic, calls and data-dependent
// branches) while keeping the functional and timing models simple.
package isa

import "fmt"

// InstBytes is the size of one encoded instruction in guest memory.
// The program counter always advances in units of InstBytes.
const InstBytes = 4

// NumIntRegs and NumFPRegs give the architectural register counts.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	// NumRegs is the size of the unified register name space used by
	// the timing model: integer registers occupy [0,32) and
	// floating-point registers occupy [32,64).
	NumRegs = NumIntRegs + NumFPRegs
)

// Reg names an architectural register in the unified name space.
// Values in [0,32) are integer registers; [32,64) are FP registers;
// RegNone marks an unused operand slot.
type Reg uint8

// RegNone marks an absent register operand.
const RegNone Reg = 0xFF

// Integer register aliases. R0 always reads as zero; writes to it are
// discarded. By convention RSP is the stack pointer, RGP the global
// (heap base) pointer, and RLR the link register used by JAL.
const (
	R0  Reg = 0
	RSP Reg = 29
	RGP Reg = 30
	RLR Reg = 31
)

// F returns the unified name of floating-point register i.
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: bad fp register f%d", i))
	}
	return Reg(NumIntRegs + i)
}

// R returns the unified name of integer register i.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: bad int register r%d", i))
	}
	return Reg(i)
}

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r != RegNone && r >= NumIntRegs }

// String renders the register in assembly syntax.
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	default:
		return fmt.Sprintf("r%d", int(r))
	}
}

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode space. The groupings matter to the timing model: each opcode
// maps to a functional-unit class (see Class) and a latency.
const (
	NOP Op = iota

	// Integer ALU, register-register.
	ADD
	SUB
	AND
	OR
	XOR
	SHL
	SHR
	SLT // set rd = (rs1 < rs2), signed

	// Integer ALU, register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SHLI
	SHRI
	SLTI
	LUI // rd = imm << 16

	// Integer multiply/divide.
	MUL
	DIV
	REM

	// Memory. LD/ST move 8 bytes, LW/SW 4 bytes, LB/SB 1 byte.
	// FLD/FST move 8-byte floats between memory and FP registers.
	LD
	LW
	LB
	ST
	SW
	SB
	FLD
	FST

	// Control flow. Branch targets and jump targets are encoded as
	// instruction-count offsets relative to the next PC.
	BEQ
	BNE
	BLT
	BGE
	JMP  // unconditional PC-relative jump
	JAL  // jump and link: RLR (or rd) = return address
	JALR // indirect jump through rs1 (returns, function pointers)

	// Floating point.
	FADD
	FSUB
	FMUL
	FDIV
	FITOF // convert integer rs1 to float rd
	FFTOI // convert float rs1 to integer rd

	// HALT stops the guest program.
	HALT

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", SLT: "slt",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SHLI: "shli", SHRI: "shri", SLTI: "slti", LUI: "lui",
	MUL: "mul", DIV: "div", REM: "rem",
	LD: "ld", LW: "lw", LB: "lb", ST: "st", SW: "sw", SB: "sb",
	FLD: "fld", FST: "fst",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JMP: "jmp", JAL: "jal", JALR: "jalr",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FITOF: "fitof", FFTOI: "fftoi",
	HALT: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Class categorizes opcodes by the functional unit that executes them.
type Class uint8

// Functional-unit classes, mirroring the paper's baseline machine
// (8 int ALUs, 2 int mult/div, 4 load/store ports, 2 FP adders,
// 2 FP mult/div).
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassFPAdd
	ClassFPMul
	ClassFPDiv
	NumClasses
)

var classNames = [NumClasses]string{
	ClassNop: "nop", ClassIntALU: "int-alu", ClassIntMul: "int-mul",
	ClassIntDiv: "int-div", ClassLoad: "load", ClassStore: "store",
	ClassBranch: "branch", ClassFPAdd: "fp-add", ClassFPMul: "fp-mul",
	ClassFPDiv: "fp-div",
}

// String returns a human-readable class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the functional-unit class of an opcode.
func ClassOf(o Op) Class { return opClass[o] }

// classOf is ClassOf's definition, from which opClass is built.
func classOf(o Op) Class {
	switch o {
	case NOP, HALT:
		return ClassNop
	case ADD, SUB, AND, OR, XOR, SHL, SHR, SLT,
		ADDI, ANDI, ORI, XORI, SHLI, SHRI, SLTI, LUI, FITOF, FFTOI:
		return ClassIntALU
	case MUL:
		return ClassIntMul
	case DIV, REM:
		return ClassIntDiv
	case LD, LW, LB, FLD:
		return ClassLoad
	case ST, SW, SB, FST:
		return ClassStore
	case BEQ, BNE, BLT, BGE, JMP, JAL, JALR:
		return ClassBranch
	case FADD, FSUB:
		return ClassFPAdd
	case FMUL:
		return ClassFPMul
	case FDIV:
		return ClassFPDiv
	default:
		return ClassNop
	}
}

// Opcode kinds, one bit each in opKind.
const (
	kindLoad uint8 = 1 << iota
	kindStore
	kindBranch
	kindJump
)

// opClass and opKind answer ClassOf and the kind predicates for every
// byte value with one load, invalid opcodes included.
var opClass, opKind = opTables()

func opTables() (class [256]Class, kind [256]uint8) {
	for i := range class {
		o := Op(i)
		class[i] = classOf(o)
		switch o {
		case LD, LW, LB, FLD:
			kind[i] = kindLoad
		case ST, SW, SB, FST:
			kind[i] = kindStore
		case BEQ, BNE, BLT, BGE:
			kind[i] = kindBranch
		case JMP, JAL, JALR:
			kind[i] = kindJump
		}
	}
	return class, kind
}

// IsLoad reports whether o reads guest memory.
func (o Op) IsLoad() bool { return opKind[o]&kindLoad != 0 }

// IsStore reports whether o writes guest memory.
func (o Op) IsStore() bool { return opKind[o]&kindStore != 0 }

// IsMem reports whether o accesses guest memory.
func (o Op) IsMem() bool { return opKind[o]&(kindLoad|kindStore) != 0 }

// IsBranch reports whether o is a conditional branch.
func (o Op) IsBranch() bool { return opKind[o]&kindBranch != 0 }

// IsJump reports whether o is an unconditional control transfer.
func (o Op) IsJump() bool { return opKind[o]&kindJump != 0 }

// IsCTI reports whether o is any control-transfer instruction.
func (o Op) IsCTI() bool { return opKind[o]&(kindBranch|kindJump) != 0 }

// MemBytes returns the access size in bytes for memory opcodes and 0
// for everything else.
func (o Op) MemBytes() int {
	switch o {
	case LD, ST, FLD, FST:
		return 8
	case LW, SW:
		return 4
	case LB, SB:
		return 1
	default:
		return 0
	}
}

// Instr is one decoded instruction. Programs are stored as []Instr and
// indexed by PC/InstBytes; Encode/Decode provide a 32-bit machine
// encoding used for round-trip testing and for hashing program text.
type Instr struct {
	Op  Op
	Rd  Reg   // destination (RegNone if none)
	Rs1 Reg   // first source (base register for memory ops)
	Rs2 Reg   // second source (store data register for stores)
	Imm int32 // immediate / displacement / branch offset (in instructions)
}

// Dst returns the destination register, or RegNone.
func (i Instr) Dst() Reg {
	if i.Op.IsStore() || i.Op.IsBranch() || i.Op == JMP || i.Op == HALT || i.Op == NOP {
		return RegNone
	}
	return i.Rd
}

// Srcs returns the source registers read by the instruction.
// Unused slots are RegNone.
func (i Instr) Srcs() (Reg, Reg) {
	switch i.Op {
	case NOP, HALT, JMP, JAL, LUI:
		return RegNone, RegNone
	case ADDI, ANDI, ORI, XORI, SHLI, SHRI, SLTI, JALR, FITOF, FFTOI:
		return i.Rs1, RegNone
	case LD, LW, LB, FLD:
		return i.Rs1, RegNone
	case ST, SW, SB, FST:
		// Base register and store-data register.
		return i.Rs1, i.Rs2
	default:
		return i.Rs1, i.Rs2
	}
}

// String renders the instruction in a simple assembly syntax.
func (i Instr) String() string {
	switch {
	case i.Op == NOP || i.Op == HALT:
		return i.Op.String()
	case i.Op == LUI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case i.Op == JMP:
		return fmt.Sprintf("%s %+d", i.Op, i.Imm)
	case i.Op == JAL:
		return fmt.Sprintf("%s %s, %+d", i.Op, i.Rd, i.Imm)
	case i.Op == JALR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	case i.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, %+d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.Op.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.Op.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op == ADDI || i.Op == ANDI || i.Op == ORI || i.Op == XORI ||
		i.Op == SHLI || i.Op == SHRI || i.Op == SLTI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case i.Op == FITOF || i.Op == FFTOI:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}
