// Custompredictor: the paper notes that *any* address predictor can
// direct a predictor-directed stream buffer. This example plugs a
// user-defined predictor — a last-two-strides "dual stride" predictor
// that alternates between two strides — into the PSB engine through
// the predict.Predictor interface and runs it against an
// alternating-stride workload that defeats both plain stride
// prediction and a first-order Markov table sized too small.
//
//	go run ./examples/custompredictor
package main

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/sbuf"
	"repro/internal/vm"
)

// dualStride predicts an alternating pair of strides per load: the
// pattern A, A+s1, A+s1+s2, A+2*s1+s2, ... which plain two-delta
// stride predictors collapse to a single wrong stride.
type dualStride struct {
	table map[uint64]*dualEntry
	block int64
}

type dualEntry struct {
	last       uint64
	s1, s2     int64
	phase      int
	confidence predict.SatCounter
}

func newDualStride(blockBytes int) *dualStride {
	return &dualStride{table: make(map[uint64]*dualEntry), block: int64(blockBytes)}
}

// Train records alternating strides per load PC.
func (p *dualStride) Train(pc, addr uint64) {
	e, ok := p.table[pc]
	if !ok {
		e = &dualEntry{confidence: predict.NewSatCounter(0, predict.AccuracyMax)}
		p.table[pc] = e
	}
	if e.last != 0 {
		stride := int64(addr - e.last)
		expected := e.s1
		if e.phase == 1 {
			expected = e.s2
		}
		if stride == expected {
			e.confidence.Inc()
		} else {
			e.confidence.Dec()
		}
		if e.phase == 0 {
			e.s1 = stride
		} else {
			e.s2 = stride
		}
		e.phase = 1 - e.phase
	}
	e.last = addr
}

// InitStream seeds per-stream state; the phase rides in the Stride
// field's low bit trick is avoided — we simply restart at phase 0 and
// store both strides inside the predictor, keyed by PC.
func (p *dualStride) InitStream(pc, missAddr uint64) predict.Stream {
	return predict.Stream{PC: pc, LastAddr: missAddr, Stride: 0}
}

// NextAddr alternates the two learned strides. The per-stream phase is
// derived from the stream's Stride field (0 or 1), which PSB carries
// for us between predictions.
func (p *dualStride) NextAddr(s *predict.Stream) (uint64, bool) {
	e, ok := p.table[s.PC]
	if !ok || (e.s1 == 0 && e.s2 == 0) {
		return 0, false
	}
	stride := e.s1
	if s.Stride == 1 {
		stride = e.s2
	}
	s.Stride = 1 - s.Stride
	s.LastAddr += uint64(stride)
	return s.LastAddr, true
}

// Confidence exposes the per-PC accuracy counter.
func (p *dualStride) Confidence(pc uint64) int {
	if e, ok := p.table[pc]; ok {
		return e.confidence.V
	}
	return 0
}

// TwoMissOK admits any load with positive confidence.
func (p *dualStride) TwoMissOK(pc uint64) bool { return p.Confidence(pc) >= 2 }

// buildAlternating builds a guest program whose single load walks
// memory with alternating strides of 3 and 11 blocks.
func buildAlternating() *vm.Machine {
	const base = 0x0020_0000
	gm := vm.NewGuestMem()
	b := asm.New()
	b.Li(isa.RSP, 0xF0000)
	b.Li(isa.R(20), base)
	b.Li(isa.R(21), 1<<40)
	b.Li(isa.R(22), 0)
	lap := b.Here("lap")
	b.Mov(isa.R(1), isa.R(20))
	b.Li(isa.R(2), 4000) // steps per lap
	b.Li(isa.R(9), 0)    // stride phase
	step := b.Here("step")
	// One static load whose address alternates between two strides:
	// its per-PC two-delta stride predictor never locks on, and the
	// walk's footprint (~900KB/lap) swamps the 2K-entry Markov table.
	b.Ld(isa.R(3), isa.R(1), 0)
	b.Add(isa.R(10), isa.R(10), isa.R(3))
	b.Shli(isa.R(5), isa.R(3), 1)
	b.Xor(isa.R(10), isa.R(10), isa.R(5))
	b.Shri(isa.R(5), isa.R(10), 3)
	b.Add(isa.R(10), isa.R(10), isa.R(5))
	b.Andi(isa.R(7), isa.R(10), 0xFF)
	b.Add(isa.R(10), isa.R(10), isa.R(7))
	b.Shli(isa.R(7), isa.R(7), 2)
	b.Xor(isa.R(10), isa.R(10), isa.R(7))
	b.Shri(isa.R(8), isa.R(10), 4)
	b.Add(isa.R(10), isa.R(10), isa.R(8))
	big := b.NewLabel("big_stride")
	join := b.NewLabel("join")
	b.Bnez(isa.R(9), big)
	b.Addi(isa.R(1), isa.R(1), 3*32) // stride A
	b.Jmp(join)
	b.Bind(big)
	b.Addi(isa.R(1), isa.R(1), 11*32) // stride B
	b.Bind(join)
	b.Xori(isa.R(9), isa.R(9), 1)
	b.Addi(isa.R(2), isa.R(2), -1)
	b.Bnez(isa.R(2), step)
	b.Addi(isa.R(22), isa.R(22), 1)
	b.Bne(isa.R(22), isa.R(21), lap)
	b.Halt()
	return vm.New(b.MustBuild(), gm)
}

func run(pf func(h *mem.Hierarchy) sbuf.Prefetcher) cpu.Stats {
	machine := buildAlternating()
	hier := mem.New(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), hier, pf(hier), cpu.MachineSource{M: machine})
	return c.Run(150_000)
}

func main() {
	base := run(func(h *mem.Hierarchy) sbuf.Prefetcher { return sbuf.Null{} })
	stride := run(func(h *mem.Hierarchy) sbuf.Prefetcher { return core.New(core.PCStride, h) })
	sfm := run(func(h *mem.Hierarchy) sbuf.Prefetcher { return core.New(core.PSBConfPriority, h) })
	custom := run(func(h *mem.Hierarchy) sbuf.Prefetcher {
		return sbuf.NewEngine(sbuf.DefaultConfig(), newDualStride(32), h)
	})

	fmt.Println("alternating-stride walk (3 blocks, then 11 blocks):")
	report := func(name string, st cpu.Stats) {
		fmt.Printf("  %-28s IPC %.3f  (%+.1f%% over base)\n",
			name, st.IPC(), (st.IPC()/base.IPC()-1)*100)
	}
	report("no prefetching", base)
	report("PC-stride stream buffers", stride)
	report("PSB + SFM predictor", sfm)
	report("PSB + custom dual-stride", custom)
	fmt.Println()
	fmt.Println("The PSB engine is predictor-agnostic: the dual-stride predictor")
	fmt.Println("plugs in through the same interface the SFM predictor uses.")
}
