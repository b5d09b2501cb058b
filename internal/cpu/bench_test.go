package cpu

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sbuf"
	"repro/internal/vm"
	"repro/internal/workload"
)

// BenchmarkCoreThroughput measures end-to-end simulated instructions
// per second of the timing core on the health benchmark (no
// prefetching).
func BenchmarkCoreThroughput(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		w, err := workload.ByName("health")
		if err != nil {
			b.Fatal(err)
		}
		c := New(DefaultConfig(), mem.New(mem.DefaultConfig()), sbuf.Null{},
			MachineSource{M: w.Build(1)})
		st := c.Run(50_000)
		committed += st.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "inst/s")
}

// benchWindow builds a straight-line dynamic instruction window: a
// steady mix of ALU ops, loads and stores (no control transfers, so
// the back-end stages — not fetch redirects — dominate). Register
// usage rotates through a dozen names, giving dispatch realistic
// dependence-capture work, and memory ops stride through distinct
// cache lines.
func benchWindow(n int) []vm.DynInst {
	insts := make([]vm.DynInst, n)
	for i := range insts {
		d := vm.DynInst{
			PC:     0x1000 + uint64(i)*isa.InstBytes,
			NextPC: 0x1000 + uint64(i+1)*isa.InstBytes,
		}
		switch {
		case i%5 == 3: // load
			d.Op = isa.LW
			d.Rd = isa.R(2 + i%12)
			d.Rs1 = isa.R(2 + (i+1)%12)
			d.EffAddr = 0x10000 + uint64(i)*64
			d.MemSize = 4
		case i%7 == 5: // store
			d.Op = isa.SW
			d.Rs1 = isa.R(2 + i%12)
			d.Rs2 = isa.R(2 + (i+2)%12)
			d.Rd = isa.RegNone
			d.EffAddr = 0x20000 + uint64(i)*64
			d.MemSize = 4
		default: // ALU
			d.Op = isa.ADD
			d.Rd = isa.R(2 + i%12)
			d.Rs1 = isa.R(2 + (i+3)%12)
			d.Rs2 = isa.R(2 + (i+6)%12)
		}
		insts[i] = d
	}
	return insts
}

// benchCPU builds a core whose source is the n-instruction window
// repeated for as long as the benchmark runs.
func benchCPU() *CPU {
	return New(DefaultConfig(), mem.New(mem.DefaultConfig()), sbuf.Null{}, &SliceSource{})
}

// resetWindow returns the core to its post-construction front-end and
// ROB state so a stage benchmark can replay the same window without
// rebuilding the machine (construction would dwarf the stage under
// measurement). It keeps the clock: the wheel is emptied and lines up
// with the current cycle.
func resetWindow(c *CPU) {
	c.robHead, c.robCount, c.lsqCount = 0, 0, 0
	clear(c.wakeable)
	clear(c.ready)
	clear(c.wheel)
	clear(c.late)
	c.lateMin, c.drained = math.MaxUint64, c.cycle
	clear(c.storeGrain[:])
	for i := range c.lastWriter {
		c.lastWriter[i] = noDep
	}
	for i := range c.wakeHead {
		c.wakeHead[i] = noDep32
	}
	c.regKnown = ^uint64(0)
	c.storeHead, c.storeCount = 0, 0
	c.minUnissuedStoreSeq = noStoreSeq
	c.fqHead, c.fqLen = 0, 0
}

// dispatchWindow dispatches items into c, DecodeWidth per cycle.
func dispatchWindow(c *CPU, items []fetchItem) {
	for pos := 0; pos < len(items); {
		n := copy(c.fetchQ, items[pos:pos+c.cfg.DecodeWidth])
		c.fqHead, c.fqLen = 0, n
		pos += n
		c.cycle++
		c.dispatch()
	}
}

// BenchmarkDispatch measures the dispatch stage alone: ROB slot
// allocation, SoA field fill, dependence capture against the register
// scoreboard, and store-ring/conflict bookkeeping.
func BenchmarkDispatch(b *testing.B) {
	c := benchCPU()
	resetWindow(c)
	window := benchWindow(c.cfg.ROBSize)
	items := make([]fetchItem, len(window))
	for i, d := range window {
		items[i] = fetchItem{d: d}
	}
	pos := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos >= len(items) || c.robCount+c.cfg.DecodeWidth > c.cfg.ROBSize {
			resetWindow(c)
			pos = 0
		}
		n := copy(c.fetchQ, items[pos:pos+c.cfg.DecodeWidth])
		c.fqHead, c.fqLen = 0, n
		pos += n
		c.cycle++
		c.dispatch()
	}
	b.ReportMetric(float64(c.seq)/float64(b.N), "inst/op")
}

// BenchmarkIssueScan measures the ready-bitmask issue scan over a full
// window of ready ALU instructions: bit iteration, port arbitration,
// flag updates and scoreboard publication.
func BenchmarkIssueScan(b *testing.B) {
	c := benchCPU()
	resetWindow(c)
	window := benchWindow(c.cfg.ROBSize)
	for i := range window { // ALU only: every entry wakes immediately
		window[i].Op = isa.ADD
		window[i].Rd = isa.R(2 + i%12)
		window[i].Rs1, window[i].Rs2 = isa.R0, isa.R0
		window[i].EffAddr, window[i].MemSize = 0, 0
	}
	items := make([]fetchItem, len(window))
	for i, d := range window {
		items[i] = fetchItem{d: d}
	}
	dispatchWindow(c, items)
	benchIssue(b, c)
}

// wakeableCount returns the number of published, un-issued slots.
func (c *CPU) wakeableCount() int {
	n := 0
	for _, w := range c.wakeable {
		n += bits.OnesCount64(w)
	}
	return n
}

// issueSnapshot is the state the issue stage changes while it drains a
// window of ALU instructions with no consumers of their own.
type issueSnapshot struct {
	cycle, drained, lateMin      uint64
	wakeable, ready, wheel, late []uint64
	flags                        []uint8
}

func takeIssueSnapshot(c *CPU) issueSnapshot {
	return issueSnapshot{
		cycle: c.cycle, drained: c.drained, lateMin: c.lateMin,
		wakeable: append([]uint64(nil), c.wakeable...),
		ready:    append([]uint64(nil), c.ready...),
		wheel:    append([]uint64(nil), c.wheel...),
		late:     append([]uint64(nil), c.late...),
		flags:    append([]uint8(nil), c.robFlags...),
	}
}

// restore puts the window back as it was at the snapshot, with every
// functional unit idle.
func (s issueSnapshot) restore(c *CPU) {
	c.cycle, c.drained, c.lateMin = s.cycle, s.drained, s.lateMin
	copy(c.wakeable, s.wakeable)
	copy(c.ready, s.ready)
	copy(c.wheel, s.wheel)
	copy(c.late, s.late)
	copy(c.robFlags, s.flags)
	for _, p := range c.pools {
		clear(p.busyUntil)
	}
}

// benchIssue runs the issue stage once per op, one cycle each, over the
// window dispatched into c, replaying it from a snapshot whenever
// everything has issued.
func benchIssue(b *testing.B, c *CPU) {
	snap := takeIssueSnapshot(c)
	issued := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.wakeableCount() == 0 {
			snap.restore(c)
		}
		c.cycle++
		before := c.wakeableCount()
		c.issue()
		issued += uint64(before - c.wakeableCount())
	}
	b.ReportMetric(float64(issued)/float64(b.N), "inst/op")
}

// BenchmarkIssueScanWaiting measures the issue stage over a full window
// in which every entry but the oldest waits on one long-latency
// producer: a 200-cycle divide. Each op is one cycle of issue; for
// about 200 cycles nothing can issue, then the window drains at the
// issue width. The per-cycle cost of entries that are published but not
// yet due is what this isolates.
func BenchmarkIssueScanWaiting(b *testing.B) {
	cfg := DefaultConfig()
	cfg.FULatency[isa.ClassIntDiv] = 200
	c := New(cfg, mem.New(mem.DefaultConfig()), sbuf.Null{}, &SliceSource{})
	resetWindow(c)
	items := make([]fetchItem, c.cfg.ROBSize)
	items[0].d = vm.DynInst{Op: isa.DIV, Rd: isa.R(1), Rs1: isa.R0, Rs2: isa.R0}
	for i := 1; i < len(items); i++ {
		items[i].d = vm.DynInst{Op: isa.ADD, Rd: isa.R(2 + i%12), Rs1: isa.R(1), Rs2: isa.R0}
	}
	dispatchWindow(c, items)
	c.cycle++
	c.issue() // the divide; its consumers now wait 200 cycles
	benchIssue(b, c)
}

// BenchmarkCommit measures in-order retirement of completed entries:
// head-of-ROB scanning, flag checks and writer release.
func BenchmarkCommit(b *testing.B) {
	c := benchCPU()
	resetWindow(c)
	window := benchWindow(c.cfg.ROBSize)
	for i := range window { // ALU only: commit with no prefetch training
		window[i].Op = isa.ADD
		window[i].Rd = isa.R(2 + i%12)
		window[i].Rs1, window[i].Rs2 = isa.R0, isa.R0
		window[i].EffAddr, window[i].MemSize = 0, 0
	}
	items := make([]fetchItem, len(window))
	for i, d := range window {
		items[i] = fetchItem{d: d}
	}
	dispatchWindow(c, items)
	for c.wakeableCount() > 0 { // complete everything
		c.cycle++
		c.issue()
	}
	flsnap := append([]uint8(nil), c.robFlags...)
	lwsnap := c.lastWriter
	lwseq := c.lastWriterSeq
	count := c.robCount
	c.cycle += 1 << 20 // all completion cycles are in the past
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.robCount == 0 {
			c.robHead, c.robCount = 0, count
			copy(c.robFlags, flsnap)
			c.lastWriter = lwsnap
			c.lastWriterSeq = lwseq
		}
		c.commit()
	}
	b.ReportMetric(float64(c.stats.Committed)/float64(b.N), "inst/op")
}

// TestSteadyStateZeroAllocs pins the data-oriented core's allocation
// behavior: once a machine is built, simulating costs zero heap
// allocations per instruction. Two runs differing only in budget
// cancel out the fixed construction allocations, so any per-
// instruction allocation shows up in the delta.
func TestSteadyStateZeroAllocs(t *testing.T) {
	stream := benchWindow(120_000)
	run := func(insts uint64) float64 {
		return testing.AllocsPerRun(3, func() {
			c := New(DefaultConfig(), mem.New(mem.DefaultConfig()), sbuf.Null{},
				&SliceSource{Insts: stream})
			c.Run(insts)
		})
	}
	short, long := run(10_000), run(110_000)
	perInst := (long - short) / 100_000
	if perInst > 1e-4 {
		t.Errorf("steady state allocates %.6f allocs/inst (short run %.0f, long run %.0f); want 0",
			perInst, short, long)
	}
}

// BenchmarkGsharePredict measures front-end prediction cost.
func BenchmarkGsharePredict(b *testing.B) {
	g := NewGshare(DefaultGshareConfig())
	d := vm.DynInst{PC: 0x1000, Op: isa.BEQ, Taken: true, NextPC: 0x1100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Taken = i%3 == 0
		if d.Taken {
			d.NextPC = 0x1100
		} else {
			d.NextPC = d.PC + 4
		}
		g.Predict(&d)
	}
}
