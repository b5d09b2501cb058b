package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/sbuf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rangeTicker mirrors the optional fast path the cpu event loop
// type-asserts on its prefetcher. A wrapper without it would make the
// core fall back to one Tick call per skipped cycle and so time a
// slower program than the one users run.
type rangeTicker interface {
	TickRange(from, to uint64)
}

var _ rangeTicker = (*timedPrefetcher)(nil)

// timedPrefetcher forwards every call to the prefetcher it wraps and
// accumulates the time spent inside it. Each timed call adds one timer
// pair of overhead; timerCost measures it so the metrics can take it
// back out.
type timedPrefetcher struct {
	pf    sbuf.Prefetcher
	rt    rangeTicker
	ns    time.Duration
	calls uint64
}

func newTimedPrefetcher(pf sbuf.Prefetcher) *timedPrefetcher {
	rt, _ := pf.(rangeTicker)
	return &timedPrefetcher{pf: pf, rt: rt}
}

func (t *timedPrefetcher) Lookup(cycle, addr uint64) (sbuf.LookupKind, uint64) {
	s := time.Now()
	k, ready := t.pf.Lookup(cycle, addr)
	t.ns += time.Since(s)
	t.calls++
	return k, ready
}

func (t *timedPrefetcher) AllocationRequest(cycle, pc, addr uint64) {
	s := time.Now()
	t.pf.AllocationRequest(cycle, pc, addr)
	t.ns += time.Since(s)
	t.calls++
}

func (t *timedPrefetcher) Train(pc, addr uint64) {
	s := time.Now()
	t.pf.Train(pc, addr)
	t.ns += time.Since(s)
	t.calls++
}

func (t *timedPrefetcher) Tick(cycle uint64) {
	s := time.Now()
	t.pf.Tick(cycle)
	t.ns += time.Since(s)
	t.calls++
}

// TickRange forwards the batched tick, or replays it cycle by cycle
// when the wrapped prefetcher lacks the fast path (as the core would).
func (t *timedPrefetcher) TickRange(from, to uint64) {
	s := time.Now()
	if t.rt != nil {
		t.rt.TickRange(from, to)
	} else {
		for cy := from; cy <= to; cy++ {
			t.pf.Tick(cy)
		}
	}
	t.ns += time.Since(s)
	t.calls++
}

func (t *timedPrefetcher) Stats() sbuf.Stats { return t.pf.Stats() }

// runWrapped simulates one exact cell through sim.RunWithPrefetcher
// with the variant's prefetcher built exactly as sim.Run builds it
// (stream-buffer block size and SFM shift follow the L1D line) and
// wrapped in a timedPrefetcher. The result carries the variant, so it
// compares equal to sim.RunChecked's for the same cell.
func runWrapped(w workload.Workload, v core.Variant, cfg sim.Config) (sim.Result, *timedPrefetcher) {
	opts := cfg.Opts
	opts.Buffers.BlockBytes = cfg.Mem.L1D.BlockBytes
	opts.SFM.BlockShift = blockShift(cfg.Mem.L1D.BlockBytes)
	var tp *timedPrefetcher
	r := sim.RunWithPrefetcher(w, cfg, func(f sbuf.Fetcher) sbuf.Prefetcher {
		tp = newTimedPrefetcher(core.NewWithOptions(v, opts, f))
		return tp
	})
	r.Variant = v
	return r, tp
}

func blockShift(blockBytes int) uint {
	s := uint(0)
	for 1<<s < blockBytes {
		s++
	}
	return s
}

// timerCost measures the timer pair the wrapper adds to every call:
// inner is what an empty timed call reads as (the part that lands in
// the prefetcher's total), loop the full per-call cost including both
// clock reads (the part that lands in the cell's total).
// Both are in nanoseconds per call.
func timerCost() (inner, loop float64) {
	const n = 1 << 20
	var acc time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		acc += time.Since(s)
	}
	total := time.Since(start)
	return float64(acc) / n, float64(total) / n
}
