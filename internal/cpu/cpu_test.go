package cpu

import (
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sbuf"
	"repro/internal/vm"
)

// runProg assembles and runs a guest program on a fresh CPU.
func runProg(t *testing.T, cfg Config, build func(b *asm.Builder), setup func(m *vm.GuestMem)) (Stats, *CPU) {
	t.Helper()
	b := asm.New()
	build(b)
	b.Halt()
	gm := vm.NewGuestMem()
	if setup != nil {
		setup(gm)
	}
	machine := vm.New(b.MustBuild(), gm)
	c := New(cfg, mem.New(mem.DefaultConfig()), sbuf.Null{}, MachineSource{M: machine})
	return c.Run(0), c
}

func TestRunsToCompletion(t *testing.T) {
	st, _ := runProg(t, DefaultConfig(), func(b *asm.Builder) {
		b.Li(isa.R(1), 100)
		b.Li(isa.R(2), 0)
		top := b.Here("top")
		b.Addi(isa.R(2), isa.R(2), 1)
		b.Bne(isa.R(2), isa.R(1), top)
	}, nil)
	// 2 setup + 100 iterations x 2 + 1 halt = 203 committed.
	if st.Committed != 203 {
		t.Errorf("committed = %d, want 203", st.Committed)
	}
	if st.Cycles == 0 || st.IPC() <= 0 {
		t.Errorf("cycles = %d, IPC = %v", st.Cycles, st.IPC())
	}
}

func TestIndependentOpsFasterThanChain(t *testing.T) {
	// Loops keep the I-cache warm so the schedule, not cold fetch,
	// dominates.
	loop := func(body func(b *asm.Builder)) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			b.Li(isa.R(1), 1)
			b.Li(isa.R(20), 200) // trip count
			b.Li(isa.R(21), 0)
			top := b.Here("top")
			body(b)
			b.Addi(isa.R(21), isa.R(21), 1)
			b.Bne(isa.R(21), isa.R(20), top)
		}
	}
	chain := loop(func(b *asm.Builder) {
		for i := 0; i < 8; i++ {
			b.Mul(isa.R(1), isa.R(1), isa.R(1)) // serial dependence, 3-cycle op
		}
	})
	indep := loop(func(b *asm.Builder) {
		for i := 0; i < 8; i++ {
			b.Mul(isa.R(2+i), isa.R(1), isa.R(1)) // independent
		}
	})
	stChain, _ := runProg(t, DefaultConfig(), chain, nil)
	stIndep, _ := runProg(t, DefaultConfig(), indep, nil)
	if float64(stIndep.Cycles)*1.5 > float64(stChain.Cycles) {
		t.Errorf("independent %d cycles not clearly faster than chained %d cycles",
			stIndep.Cycles, stChain.Cycles)
	}
	if stIndep.IPC() < 2 {
		t.Errorf("independent IPC = %v, want >= 2", stIndep.IPC())
	}
}

func TestLoadMissSlowerThanHit(t *testing.T) {
	// Program A: a loop hammering one cache block — hits once warm.
	// The dependent Add serializes iterations so in-flight merging
	// settles quickly.
	// The load is a self-pointer chase (guest memory holds 0x20000 at
	// 0x20000), serializing iterations so in-flight merges cannot
	// inflate the miss count.
	hot := func(b *asm.Builder) {
		b.Li(isa.R(2), 0x20000)
		b.Li(isa.R(20), 200)
		b.Li(isa.R(21), 0)
		top := b.Here("top")
		b.Ld(isa.R(2), isa.R(2), 0)
		b.Addi(isa.R(21), isa.R(21), 1)
		b.Bne(isa.R(21), isa.R(20), top)
	}
	// Program B: a loop striding across distinct blocks — every load
	// misses.
	cold := func(b *asm.Builder) {
		b.Li(isa.R(1), 0x20000)
		b.Li(isa.R(20), 200)
		b.Li(isa.R(21), 0)
		top := b.Here("top")
		b.Ld(isa.R(2), isa.R(1), 0)
		b.Add(isa.R(3), isa.R(3), isa.R(2))
		b.Addi(isa.R(1), isa.R(1), 2048)
		b.Addi(isa.R(21), isa.R(21), 1)
		b.Bne(isa.R(21), isa.R(20), top)
	}
	stHot, _ := runProg(t, DefaultConfig(), hot, func(m *vm.GuestMem) {
		m.Write64(0x20000, 0x20000) // self-pointer
	})
	stCold, _ := runProg(t, DefaultConfig(), cold, nil)
	if stCold.Cycles <= stHot.Cycles*2 {
		t.Errorf("cold %d cycles vs hot %d cycles: misses too cheap",
			stCold.Cycles, stHot.Cycles)
	}
	// The hot loop misses once (plus any in-flight merges while the
	// first fill is outstanding, which the paper counts as misses).
	if stHot.DMisses == 0 || stHot.DMisses > 20 {
		t.Errorf("hot misses = %d, want a handful", stHot.DMisses)
	}
	if stCold.DMisses < 190 {
		t.Errorf("cold misses = %d, want ~200", stCold.DMisses)
	}
	if stCold.AvgLoadLatency() <= stHot.AvgLoadLatency() {
		t.Error("cold average load latency not larger")
	}
}

func TestStoreForwarding(t *testing.T) {
	st, _ := runProg(t, DefaultConfig(), func(b *asm.Builder) {
		b.Li(isa.R(1), 0x20000)
		b.Li(isa.R(2), 42)
		for i := 0; i < 50; i++ {
			b.St(isa.R(2), isa.R(1), 0)
			b.Ld(isa.R(3), isa.R(1), 0) // must forward from the store
		}
	}, nil)
	if st.Forwards != 50 {
		t.Errorf("forwards = %d, want 50", st.Forwards)
	}
	// Forwarded loads do not count as cache accesses.
	if st.DAccesses != 50+1 { // 50 stores + first store's probe... stores probe too
		// 50 stores probe the cache; forwarded loads don't.
		if st.DAccesses != 50 {
			t.Errorf("DAccesses = %d, want 50 (stores only)", st.DAccesses)
		}
	}
}

func TestDisambiguationPolicies(t *testing.T) {
	prog := func(b *asm.Builder) {
		b.Li(isa.R(1), 0x20000)
		b.Li(isa.R(2), 7)
		for i := 0; i < 100; i++ {
			// Store to one location, load from an unrelated one: under
			// perfect store sets the load never waits; under NoDis it
			// waits for the store to issue.
			b.St(isa.R(2), isa.R(1), 0)
			b.Ld(isa.R(3), isa.R(1), 512)
			b.Add(isa.R(4), isa.R(3), isa.R(2))
		}
	}
	cfgP := DefaultConfig()
	cfgN := DefaultConfig()
	cfgN.Disambiguation = DisNone
	stP, _ := runProg(t, cfgP, prog, nil)
	stN, _ := runProg(t, cfgN, prog, nil)
	if stP.Forwards != 0 {
		t.Errorf("perfect policy forwarded %d non-conflicting loads", stP.Forwards)
	}
	if stN.Cycles < stP.Cycles {
		t.Errorf("NoDis (%d cycles) faster than perfect (%d cycles)",
			stN.Cycles, stP.Cycles)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	// Alternating taken/not-taken pattern defeats 2-bit counters less
	// than random, so use a data-dependent unpredictable branch via a
	// simple LCG in registers.
	unpredictable := func(b *asm.Builder) {
		b.Li(isa.R(1), 12345) // x
		b.Li(isa.R(2), 1103515245)
		b.Li(isa.R(3), 12345)
		b.Li(isa.R(4), 0)   // i
		b.Li(isa.R(5), 500) // n
		top := b.Here("top")
		b.Mul(isa.R(1), isa.R(1), isa.R(2))
		b.Add(isa.R(1), isa.R(1), isa.R(3))
		b.Shri(isa.R(6), isa.R(1), 16)
		b.Andi(isa.R(6), isa.R(6), 1)
		skip := b.NewLabel("skip")
		b.Beqz(isa.R(6), skip)
		b.Addi(isa.R(7), isa.R(7), 1)
		b.Bind(skip)
		b.Addi(isa.R(4), isa.R(4), 1)
		b.Bne(isa.R(4), isa.R(5), top)
	}
	predictable := func(b *asm.Builder) {
		b.Li(isa.R(4), 0)
		b.Li(isa.R(5), 500)
		top := b.Here("top")
		b.Mul(isa.R(1), isa.R(1), isa.R(2))
		b.Add(isa.R(1), isa.R(1), isa.R(3))
		b.Shri(isa.R(6), isa.R(1), 16)
		b.Andi(isa.R(6), isa.R(6), 1)
		b.Addi(isa.R(7), isa.R(7), 1)
		b.Nop()
		b.Addi(isa.R(4), isa.R(4), 1)
		b.Bne(isa.R(4), isa.R(5), top)
	}
	stU, cU := runProg(t, DefaultConfig(), unpredictable, nil)
	stP, _ := runProg(t, DefaultConfig(), predictable, nil)
	if cU.bp.Mispredicts() == 0 {
		t.Fatal("unpredictable program had no mispredicts")
	}
	// Per-instruction cost must be visibly higher with mispredicts.
	cpiU := float64(stU.Cycles) / float64(stU.Committed)
	cpiP := float64(stP.Cycles) / float64(stP.Committed)
	if cpiU <= cpiP {
		t.Errorf("CPI with mispredicts %.3f <= without %.3f", cpiU, cpiP)
	}
}

func TestGshareLearnsLoopBranch(t *testing.T) {
	_, c := runProg(t, DefaultConfig(), func(b *asm.Builder) {
		b.Li(isa.R(1), 1000)
		b.Li(isa.R(2), 0)
		top := b.Here("top")
		b.Addi(isa.R(2), isa.R(2), 1)
		b.Bne(isa.R(2), isa.R(1), top)
	}, nil)
	if c.bp.Branches == 0 {
		t.Fatal("no branches predicted")
	}
	rate := float64(c.bp.Mispredicts()) / float64(c.bp.Branches)
	if rate > 0.05 {
		t.Errorf("loop branch misprediction rate = %.3f, want < 0.05", rate)
	}
}

// spyPF records prefetcher callbacks.
type spyPF struct {
	lookups, allocs, trains, ticks int
}

func (s *spyPF) Lookup(cycle, addr uint64) (sbuf.LookupKind, uint64) {
	s.lookups++
	return sbuf.LookupMiss, 0
}
func (s *spyPF) AllocationRequest(cycle, pc, addr uint64) { s.allocs++ }
func (s *spyPF) Train(pc, addr uint64)                    { s.trains++ }
func (s *spyPF) Tick(cycle uint64)                        { s.ticks++ }
func (s *spyPF) Stats() sbuf.Stats                        { return sbuf.Stats{} }

func TestPrefetcherHooks(t *testing.T) {
	b := asm.New()
	b.Li(isa.R(1), 0x20000)
	for i := 0; i < 20; i++ {
		b.Ld(isa.R(2), isa.R(1), 0)
		b.Addi(isa.R(1), isa.R(1), 4096)
	}
	b.Halt()
	spy := &spyPF{}
	machine := vm.New(b.MustBuild(), vm.NewGuestMem())
	c := New(DefaultConfig(), mem.New(mem.DefaultConfig()), spy, MachineSource{M: machine})
	st := c.Run(0)

	if spy.ticks == 0 || uint64(spy.ticks) != st.Cycles {
		t.Errorf("ticks = %d, cycles = %d: Tick not called every cycle", spy.ticks, st.Cycles)
	}
	if spy.lookups != 20 {
		t.Errorf("lookups = %d, want 20 (one per missing load)", spy.lookups)
	}
	if spy.allocs != 20 {
		t.Errorf("allocation requests = %d, want 20", spy.allocs)
	}
	if spy.trains != 20 {
		t.Errorf("trains = %d, want 20", spy.trains)
	}
}

func TestTrainSkipsForwardedLoads(t *testing.T) {
	b := asm.New()
	b.Li(isa.R(1), 0x20000)
	b.Li(isa.R(2), 9)
	for i := 0; i < 10; i++ {
		b.St(isa.R(2), isa.R(1), 0)
		b.Ld(isa.R(3), isa.R(1), 0)
	}
	b.Halt()
	spy := &spyPF{}
	machine := vm.New(b.MustBuild(), vm.NewGuestMem())
	c := New(DefaultConfig(), mem.New(mem.DefaultConfig()), spy, MachineSource{M: machine})
	st := c.Run(0)
	if st.Forwards != 10 {
		t.Fatalf("forwards = %d, want 10", st.Forwards)
	}
	if spy.trains != 0 {
		t.Errorf("trains = %d, want 0 (forwarded loads must not train)", spy.trains)
	}
}

func TestMaxInstsStopsEarly(t *testing.T) {
	b := asm.New()
	top := b.Here("spin")
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Jmp(top)
	machine := vm.New(b.MustBuild(), vm.NewGuestMem())
	c := New(DefaultConfig(), mem.New(mem.DefaultConfig()), sbuf.Null{}, MachineSource{M: machine})
	st := c.Run(500)
	if st.Committed < 500 || st.Committed > 500+uint64(DefaultConfig().CommitWidth) {
		t.Errorf("committed = %d, want ~500", st.Committed)
	}
}

func TestLoadStoreCounts(t *testing.T) {
	st, _ := runProg(t, DefaultConfig(), func(b *asm.Builder) {
		b.Li(isa.R(1), 0x20000)
		for i := 0; i < 30; i++ {
			b.Ld(isa.R(2), isa.R(1), int32(i*64))
		}
		for i := 0; i < 10; i++ {
			b.St(isa.R(2), isa.R(1), int32(i*64+8192))
		}
	}, nil)
	if st.Loads != 30 || st.Stores != 10 {
		t.Errorf("loads/stores = %d/%d, want 30/10", st.Loads, st.Stores)
	}
	if st.PctLoads() <= 0 || st.PctStores() <= 0 {
		t.Error("percentage helpers returned zero")
	}
}

func TestSliceSource(t *testing.T) {
	s := &SliceSource{Insts: []vm.DynInst{{PC: 0x1000}, {PC: 0x1004}}}
	d, ok := s.Next()
	if !ok || d.PC != 0x1000 {
		t.Fatal("first Next wrong")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Error("exhausted source returned ok")
	}
}

// TestMachineSourceFill: the live source's batch path yields exactly
// the records its Next path yields, in odd batch sizes, up to and
// including HALT, and nothing past it.
func TestMachineSourceFill(t *testing.T) {
	build := func() *vm.Machine {
		b := asm.New()
		fn := b.NewLabel("fn")
		b.Li(isa.R(1), 0x9000)
		b.Li(isa.R(2), 300)
		top := b.Here("top")
		b.Call(fn)
		b.Addi(isa.R(2), isa.R(2), -1)
		b.Bne(isa.R(2), isa.R0, top)
		b.Halt()
		b.Bind(fn)
		b.St(isa.R(2), isa.R(1), 0)
		b.Ld(isa.R(3), isa.R(1), 8)
		b.Addi(isa.R(1), isa.R(1), 16)
		b.Ret()
		return vm.New(b.MustBuild(), nil)
	}
	var want []vm.DynInst
	for src := (MachineSource{M: build()}); ; {
		d, ok := src.Next()
		if !ok {
			break
		}
		want = append(want, d)
	}
	if len(want) < 1000 || want[len(want)-1].Op != isa.HALT {
		t.Fatalf("Next yielded %d records ending in %v, want a long stream ending in HALT", len(want), want[len(want)-1].Op)
	}
	for _, batch := range []int{1, 7, 255, 2 * len(want)} {
		src := MachineSource{M: build()}
		var got []vm.DynInst
		buf := make([]vm.DynInst, batch)
		for {
			n := src.Fill(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !slices.Equal(got, want) {
			t.Errorf("batch %d: Fill yielded %d records, Next %d", batch, len(got), len(want))
		}
		if n := src.Fill(buf); n != 0 {
			t.Errorf("batch %d: Fill yielded %d records past HALT", batch, n)
		}
		if _, ok := src.Next(); ok {
			t.Errorf("batch %d: Next yielded a record past HALT", batch)
		}
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	// A long-latency head (memory miss) with many independents behind:
	// dispatch must stall at ROB capacity, not wrap.
	cfg := DefaultConfig()
	cfg.ROBSize = 16
	st, _ := runProg(t, cfg, func(b *asm.Builder) {
		b.Li(isa.R(1), 0x20000)
		for i := 0; i < 20; i++ {
			b.Ld(isa.R(2), isa.R(1), 0)
			b.Addi(isa.R(1), isa.R(1), 8192)
			for j := 0; j < 30; j++ {
				b.Add(isa.R(3+j%5), isa.R(4), isa.R(5))
			}
		}
	}, nil)
	if st.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestFPLatencies(t *testing.T) {
	// FP divide chains should be much slower than FP add chains
	// (12-cycle unpipelined vs 2-cycle pipelined). Loops keep the
	// I-cache warm.
	fp := func(op func(b *asm.Builder)) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			b.Li(isa.R(1), 3)
			b.Fitof(isa.F(0), isa.R(1))
			b.Fitof(isa.F(1), isa.R(1))
			b.Li(isa.R(20), 100)
			b.Li(isa.R(21), 0)
			top := b.Here("top")
			op(b)
			op(b)
			b.Addi(isa.R(21), isa.R(21), 1)
			b.Bne(isa.R(21), isa.R(20), top)
		}
	}
	stDiv, _ := runProg(t, DefaultConfig(), fp(func(b *asm.Builder) {
		b.Fdiv(isa.F(0), isa.F(0), isa.F(1))
	}), nil)
	stAdd, _ := runProg(t, DefaultConfig(), fp(func(b *asm.Builder) {
		b.Fadd(isa.F(0), isa.F(0), isa.F(1))
	}), nil)
	if stDiv.Cycles <= stAdd.Cycles*2 {
		t.Errorf("fdiv chain %d cycles vs fadd chain %d: divide too cheap",
			stDiv.Cycles, stAdd.Cycles)
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.DMissRate() != 0 || s.AvgLoadLatency() != 0 ||
		s.PctLoads() != 0 || s.PctStores() != 0 {
		t.Error("zero stats helpers should return 0")
	}
}
