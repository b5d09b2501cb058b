package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sbuf"
)

// exampleFetch is a minimal memory system for the examples: every
// prefetch completes ten cycles later and the bus is always free.
type exampleFetch struct{}

func (exampleFetch) Prefetch(cycle, addr uint64) (uint64, bool) { return cycle + 10, true }
func (exampleFetch) BusFreeAt(cycle uint64) bool                { return true }

// Build the paper's best configuration and walk one prefetch through
// it by hand.
func ExampleNew() {
	pf := core.New(core.PSBConfPriority, exampleFetch{})

	// Train the predictor with a load that misses on a regular stride
	// (the write-back updates of §4.2).
	for _, addr := range []uint64{0x1000, 0x1040, 0x1080, 0x10C0} {
		pf.Train(0x400, addr)
	}
	// The next miss allocates a stream buffer...
	pf.AllocationRequest(100, 0x400, 0x1100)
	// ...which predicts and prefetches on subsequent cycles.
	pf.Tick(101)
	pf.Tick(102)

	kind, _ := pf.Lookup(120, 0x1140) // the stream's next block
	fmt.Println(kind == sbuf.LookupHitReady)
	// Output: true
}

// Any predictor implementing predict.Predictor can direct the buffers.
func ExampleNewCustom() {
	pred := predict.NewSequential(32) // Jouppi-style next-block streams
	engine := core.NewCustom(pred, sbuf.DefaultConfig(), exampleFetch{})
	engine.AllocationRequest(0, 0x400, 0x2000)
	engine.Tick(1)
	fmt.Println(engine.Stats().PrefetchesIssued)
	// Output: 1
}

func ExampleVariant_String() {
	for _, v := range core.PaperVariants() {
		fmt.Println(v)
	}
	// Output:
	// PC-stride
	// 2Miss-RR
	// 2Miss-Priority
	// ConfAlloc-RR
	// ConfAlloc-Priority
}
