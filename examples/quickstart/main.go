// Quickstart: build a pointer-chasing guest program, run it on the
// paper's baseline machine with and without predictor-directed stream
// buffers, and print the speedup.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

func main() {
	const insts = 200_000

	// A linked list of 1500 nodes scattered through the heap, walked
	// serially forever: the access pattern stride prefetchers cannot
	// follow and the Stride-Filtered Markov predictor can.
	run := func(variant core.Variant) cpu.Stats {
		machine := workload.BuildPointerChase(1500, 42)
		hier := mem.New(mem.DefaultConfig())

		c := cpu.New(cpu.DefaultConfig(), hier, core.New(variant, hier), cpu.MachineSource{M: machine})
		return c.Run(insts)
	}

	base := run(core.None)
	stride := run(core.PCStride)
	psb := run(core.PSBConfPriority)

	fmt.Println("pointer chase, 1500 nodes, paper baseline machine")
	fmt.Printf("%-22s IPC %.3f   avg load latency %5.1f cycles\n",
		"no prefetching:", base.IPC(), base.AvgLoadLatency())
	fmt.Printf("%-22s IPC %.3f   avg load latency %5.1f cycles  (%+.1f%%)\n",
		"PC-stride buffers:", stride.IPC(), stride.AvgLoadLatency(),
		(stride.IPC()/base.IPC()-1)*100)
	fmt.Printf("%-22s IPC %.3f   avg load latency %5.1f cycles  (%+.1f%%)\n",
		"predictor-directed:", psb.IPC(), psb.AvgLoadLatency(),
		(psb.IPC()/base.IPC()-1)*100)
}
