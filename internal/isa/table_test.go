package isa

import "testing"

// The opcode predicates and ClassOf as they were written before they
// became table lookups. Every byte value, valid opcode or not, must
// answer through the tables exactly as through these expressions.

func refIsLoad(o Op) bool   { return o == LD || o == LW || o == LB || o == FLD }
func refIsStore(o Op) bool  { return o == ST || o == SW || o == SB || o == FST }
func refIsMem(o Op) bool    { return refIsLoad(o) || refIsStore(o) }
func refIsBranch(o Op) bool { return o == BEQ || o == BNE || o == BLT || o == BGE }
func refIsJump(o Op) bool   { return o == JMP || o == JAL || o == JALR }
func refIsCTI(o Op) bool    { return refIsBranch(o) || refIsJump(o) }

func refClassOf(o Op) Class {
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

func TestOpTablesMatchReference(t *testing.T) {
	for b := 0; b < 256; b++ {
		o := Op(b)
		for _, p := range []struct {
			name      string
			got, want bool
		}{
			{"IsLoad", o.IsLoad(), refIsLoad(o)},
			{"IsStore", o.IsStore(), refIsStore(o)},
			{"IsMem", o.IsMem(), refIsMem(o)},
			{"IsBranch", o.IsBranch(), refIsBranch(o)},
			{"IsJump", o.IsJump(), refIsJump(o)},
			{"IsCTI", o.IsCTI(), refIsCTI(o)},
		} {
			if p.got != p.want {
				t.Errorf("Op(%d).%s() = %v, want %v", b, p.name, p.got, p.want)
			}
		}
		if got, want := ClassOf(o), refClassOf(o); got != want {
			t.Errorf("ClassOf(Op(%d)) = %v, want %v", b, got, want)
		}
	}
}
