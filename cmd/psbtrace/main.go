// Command psbtrace characterizes a benchmark's miss stream: it obtains
// the committed-path instruction trace (recording it through a trace
// cache, or replaying a .psbtrace file recorded earlier), filters
// the reference stream through a standalone L1 model, and reports the
// properties that determine how prefetchable the program is — miss
// rate, the block-delta mix (stride vs pointer), the Markov working
// set, and oracle predictability. It is the analysis companion to the
// timing tools.
//
// Usage:
//
//	psbtrace -bench health -insts 500000
//	psbtrace -bench all
//	psbtrace -bench all -trace-dir traces/   # reuse recordings across runs and tools
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, analyzes the requested benchmarks and returns the
// exit status: 0 = clean, 1 = a recording failed, 2 = flag misuse
// (an unknown benchmark and a zero -insts included). Each run records
// into its own trace cache, so only -trace-dir carries recordings from
// one run to the next.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "health", "benchmark name, or 'all'")
		topN      = fs.Int("top", 8, "block deltas to list")
		stream    = cli.BindStream(fs)
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	cfg, _, err := stream.Config(sim.Default())
	if err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}

	var benches []workload.Workload
	if *benchName == "all" {
		benches = workload.All()
	} else {
		w, err := workload.ByName(*benchName)
		if err != nil {
			fmt.Fprintln(stderr, err)
			fs.Usage()
			return 2
		}
		benches = []workload.Workload{w}
	}
	var cache trace.Cache
	for _, w := range benches {
		if err := analyze(stdout, &cache, w, cfg.MaxInsts, cfg.Seed, *topN, cfg.TraceDir); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

func analyze(out io.Writer, cache *trace.Cache, w workload.Workload, insts uint64, seed int64, topN int, dir string) error {
	key := trace.Key{Workload: w.Name, Seed: seed, MaxInsts: insts}
	replay, err := cache.Source(key, insts, dir,
		func() *vm.Machine { return w.Build(seed) })
	if err != nil {
		return err
	}
	l1 := mem.NewCache(mem.DefaultConfig().L1D)
	hist := predict.NewDeltaHistogram(1<<16, 5)

	var loads, stores, misses uint64
	deltas := make(map[int64]uint64)
	missBlocks := make(map[uint64]struct{})
	missPCs := make(map[uint64]struct{})
	var lastMissBlk uint64
	haveLast := false

	trace.FilterL1(trace.Limit(replay, insts), l1, func(d vm.DynInst, miss bool) {
		if d.IsLoad() {
			loads++
		} else {
			stores++
		}
		if !miss {
			return
		}
		misses++
		blk := d.EffAddr >> 5
		missBlocks[blk] = struct{}{}
		if d.IsLoad() {
			missPCs[d.PC] = struct{}{}
			hist.Observe(d.EffAddr)
			if haveLast {
				deltas[int64(blk)-int64(lastMissBlk)]++
			}
			lastMissBlk = blk
			haveLast = true
		}
	})

	fmt.Fprintf(out, "=== %s (%d instructions) ===\n", w.Name, insts)
	fmt.Fprintf(out, "loads %d (%.1f%%)  stores %d (%.1f%%)  L1 misses %d (%.1f%% of refs)\n",
		loads, pct(loads, insts), stores, pct(stores, insts),
		misses, pct(misses, loads+stores))
	fmt.Fprintf(out, "miss working set: %d blocks (%.0f KB)  missing load PCs: %d\n",
		len(missBlocks), float64(len(missBlocks))*32/1024, len(missPCs))
	fmt.Fprintf(out, "Markov-oracle predictability: 8b %.1f%%  16b %.1f%%  full %.1f%%\n",
		hist.PercentPredictable(8)*100, hist.PercentPredictable(16)*100,
		hist.PercentPredictable(64)*100)

	type dc struct {
		delta int64
		count uint64
	}
	var sorted []dc
	var total uint64
	for d, c := range deltas {
		sorted = append(sorted, dc{d, c})
		total += c
	}
	// Tie-break equal counts by delta so the report is deterministic
	// (the map's iteration order is not).
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].count != sorted[j].count {
			return sorted[i].count > sorted[j].count
		}
		return sorted[i].delta < sorted[j].delta
	})
	fmt.Fprintf(out, "top miss-stream block deltas:\n")
	for i, e := range sorted {
		if i >= topN {
			break
		}
		fmt.Fprintf(out, "  %+6d blocks: %5.1f%%\n", e.delta, pct(e.count, total))
	}
	covered := uint64(0)
	for i, e := range sorted {
		if i >= topN {
			break
		}
		covered += e.count
	}
	fmt.Fprintf(out, "  (top %d deltas cover %.1f%% — higher means stride-friendlier)\n\n",
		topN, pct(covered, total))
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
