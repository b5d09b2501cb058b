package sbuf

import (
	"testing"

	"repro/internal/predict"
)

type benchFetch struct{}

func (benchFetch) Prefetch(cycle, addr uint64) (uint64, bool) { return cycle + 16, true }
func (benchFetch) BusFreeAt(cycle uint64) bool                { return cycle%2 == 0 }

// BenchmarkEngineTick measures the per-cycle cost of the stream-buffer
// engine with all buffers active.
func BenchmarkEngineTick(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Alloc = AllocAlways
	e := NewEngine(cfg, predict.NewSequential(32), benchFetch{})
	for i := 0; i < cfg.NumBuffers; i++ {
		e.AllocationRequest(uint64(i), uint64(i)<<2, uint64(i)<<16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tick(uint64(i))
		if i%8 == 0 {
			// Keep streams draining so predictions continue.
			e.Lookup(uint64(i), uint64(i%8)<<16)
		}
	}
}

// BenchmarkEngineLookup measures the fully-associative lookup cost.
func BenchmarkEngineLookup(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Alloc = AllocAlways
	e := NewEngine(cfg, predict.NewSequential(32), benchFetch{})
	for i := 0; i < cfg.NumBuffers; i++ {
		e.AllocationRequest(uint64(i), uint64(i)<<2, uint64(i)<<16)
		e.Tick(uint64(i * 2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Lookup(uint64(i), 0xDEAD0000) // miss path: scans everything
	}
}
