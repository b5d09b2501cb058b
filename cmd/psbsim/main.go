// Command psbsim runs one benchmark under one prefetcher configuration
// and prints the statistics block.
//
// Usage:
//
//	psbsim -bench health -scheme ConfAlloc-Priority -insts 500000
//	psbsim -bench all -scheme all        # full cross product
//	psbsim -bench all -scheme all -parallel -1   # ... across all cores
//	psbsim -bench all -scheme all -job-timeout 2m -retries 2
//	psbsim -bench all -scheme all -trace-dir traces/   # persist and reuse .psbtrace recordings
//	psbsim -list                         # show benchmarks and schemes
//
// A run that panics or trips the -job-timeout watchdog prints a FAILED
// line for its cell and the remaining cells still complete. Exit
// status: 0 = clean, 1 = one or more cells failed, 2 = flag misuse.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workload"
)

// usageError prints the message plus usage and exits 2, the
// flag-misuse status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func benchNames() string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func schemeNames() string {
	var names []string
	for _, v := range core.Variants() {
		names = append(names, v.String())
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		benchName  = flag.String("bench", "health", "benchmark name, or 'all'")
		scheme     = flag.String("scheme", "ConfAlloc-Priority", "prefetcher scheme, or 'all'")
		insts      = flag.Uint64("insts", 500_000, "instruction budget")
		seed       = flag.Int64("seed", 1, "workload layout seed")
		l1Size     = flag.Int("l1-size", 32<<10, "L1 data cache bytes")
		l1Ways     = flag.Int("l1-ways", 4, "L1 data cache associativity")
		noDis      = flag.Bool("nodis", false, "disable perfect store sets (NoDis)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations: 0 = serial, N = N workers, -1 = all cores")
		jobTimeout = flag.Duration("job-timeout", 0, "wall-clock budget per simulation attempt (0 = unlimited)")
		retries    = flag.Int("retries", 1, "re-runs allowed per cell after a panic or timeout")
		list       = flag.Bool("list", false, "list benchmarks and schemes")
		verbose    = flag.Bool("v", false, "print the full statistics block")
		jsonOut    = flag.Bool("json", false, "print each cell as canonical JSON (the exact bytes psbserved returns for the same cell)")
		traceFlag  = flag.String("trace", "memory", "instruction stream source: off = live functional execution per cell, memory = record each workload once and replay (bit-identical), disk = memory plus .psbtrace persistence in -trace-dir")
		traceDir   = flag.String("trace-dir", "", "directory for .psbtrace recordings (implies -trace disk)")
		cycleMode  = flag.String("cycle-mode", "", "clock advancement: event = skip to the next event (default), accurate = tick every cycle (reference mode; machine statistics match, only the skip telemetry differs)")
		sampled    = flag.Bool("sample", false, "sampled simulation: functional fast-forward with detailed measurement intervals and an IPC estimate with confidence bounds")
		samplePer  = flag.Uint64("sample-period", 0, "instructions between measurement intervals (0 = default)")
		sampleLen  = flag.Uint64("sample-len", 0, "measured instructions per interval (0 = default)")
		sampleWarm = flag.Uint64("sample-warmup", 0, "detailed-but-unmeasured warm-up instructions per interval (0 = default)")
		progress   = flag.Bool("progress", false, "print a progress line to stderr about once a second (committed instructions, simulation rate, ETA); serializes the run")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:")
		for _, w := range workload.All() {
			fmt.Printf("  %-10s %s\n", w.Name, w.Description)
		}
		fmt.Println("schemes:")
		for _, v := range core.Variants() {
			fmt.Printf("  %s\n", v)
		}
		return
	}

	cfg := sim.Default()
	cfg.MaxInsts = *insts
	cfg.Seed = *seed
	cfg.Mem.L1D.SizeBytes = *l1Size
	cfg.Mem.L1D.Ways = *l1Ways
	cfg.Workers = *parallel
	if *noDis {
		cfg.CPU.Disambiguation = cpu.DisNone
	}
	mode, err := cpu.ParseCycleMode(*cycleMode)
	if err != nil {
		usageError("%v", err)
	}
	cfg.CPU.CycleMode = mode
	traceMode, err := sim.ParseTraceFlags(*traceFlag, *traceDir)
	if err != nil {
		usageError("%v", err)
	}
	cfg.TraceMode = traceMode
	cfg.TraceDir = *traceDir
	if *sampled {
		cfg.SampleMode = sim.SampleOn
		cfg.SamplePeriod = *samplePer
		cfg.SampleLen = *sampleLen
		cfg.SampleWarmup = *sampleWarm
		if cfg.TraceMode == sim.TraceOff {
			usageError("-sample needs a replayable stream: use -trace memory or -trace disk")
		}
	}
	if *progress && *sampled {
		// Sampled runs jump between intervals, so a committed-
		// instruction progress line would be misleading; the run is
		// short anyway.
		fmt.Fprintln(os.Stderr, "psbsim: -progress is not available with -sample; continuing without progress")
		*progress = false
	}

	var benches []workload.Workload
	if *benchName == "all" {
		benches = workload.All()
	} else {
		w, err := workload.ByName(*benchName)
		if err != nil {
			usageError("unknown benchmark %q: valid benchmarks are %s, or 'all'", *benchName, benchNames())
		}
		benches = []workload.Workload{w}
	}

	var schemes []core.Variant
	if *scheme == "all" {
		schemes = core.Variants()
	} else {
		v, err := core.VariantByName(*scheme)
		if err != nil {
			usageError("unknown scheme %q: valid schemes are %s, or 'all'", *scheme, schemeNames())
		}
		schemes = []core.Variant{v}
	}

	if err := cfg.Validate(); err != nil {
		usageError("invalid configuration: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Fan the cross product across the worker pool; cells print in job
	// order either way, so output is identical to a serial run.
	var jobs []runner.Job
	for _, w := range benches {
		for _, v := range schemes {
			jobs = append(jobs, runner.Job{Workload: w, Variant: v, Config: cfg})
		}
	}
	opts := runner.Options{Timeout: *jobTimeout, Retries: *retries}
	var cells []runner.CellResult
	if *progress {
		cells = runWithProgress(ctx, jobs)
	} else {
		cells, _ = runner.ForWorkers(*parallel).RunChecked(ctx, jobs, opts)
	}
	failed := 0
	for i, c := range cells {
		if c.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%-10s %-22s FAILED: %v\n",
				jobs[i].Workload.Name, jobs[i].Variant, c.Err.Err)
			continue
		}
		if *jsonOut {
			os.Stdout.Write(results.Encode(c.Result))
			continue
		}
		fmt.Println(c.Result.Summary())
		if *verbose {
			printDetail(c.Result)
		}
	}
	if *verbose && *sampled && !*jsonOut {
		st := sample.Shared().Stats()
		fmt.Printf("checkpoint store: %.1f MiB held, %d hits / %d misses\n",
			float64(st.Bytes)/(1<<20), st.Hits, st.Misses)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d cell(s) failed\n", failed, len(cells))
		os.Exit(1)
	}
}

// runWithProgress runs the jobs serially on this goroutine, advancing
// each sim.Machine in chunks and printing a progress line to stderr
// about once a second. sim.RunChecked drives the same Machine in one
// step, so results are bit-identical; what -progress trades away is
// parallelism and per-cell retry, which an interactive run does not
// want anyway.
func runWithProgress(ctx context.Context, jobs []runner.Job) []runner.CellResult {
	cells := make([]runner.CellResult, len(jobs))
	for i, j := range jobs {
		cells[i] = progressCell(ctx, j)
		if ctx.Err() != nil {
			// Fail the remaining cells fast, like a canceled RunChecked.
			for k := i + 1; k < len(jobs); k++ {
				cells[k] = cellFailure(jobs[k], 0, ctx.Err())
			}
			break
		}
	}
	return cells
}

func progressCell(ctx context.Context, j runner.Job) runner.CellResult {
	m, err := sim.NewMachine(j.Workload, j.Variant, j.Config)
	if err != nil {
		return cellFailure(j, 0, err)
	}
	const chunk = 20_000 // ~ms-scale turns: responsive without print overhead
	start := time.Now()
	lastPrint := start
	label := fmt.Sprintf("%s/%s", j.Workload.Name, j.Variant)
	for {
		done, err := m.Advance(ctx, m.Committed()+chunk)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\rpsbsim: %s: aborted after %d insts            \n", label, m.Committed())
			return cellFailure(j, 1, err)
		}
		if done {
			break
		}
		if now := time.Now(); now.Sub(lastPrint) >= time.Second {
			lastPrint = now
			committed := m.Committed()
			rate := float64(committed) / now.Sub(start).Seconds()
			eta := "?"
			if rate > 0 {
				rem := float64(j.Config.MaxInsts-committed) / rate
				eta = (time.Duration(rem * float64(time.Second))).Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "psbsim: %s %d/%d insts (%.1f%%)  %.2fM insts/s  ETA %s\n",
				label, committed, j.Config.MaxInsts,
				100*float64(committed)/float64(j.Config.MaxInsts), rate/1e6, eta)
		}
	}
	if time.Since(start) >= time.Second {
		fmt.Fprintf(os.Stderr, "psbsim: %s done: %d insts in %s\n",
			label, m.Committed(), time.Since(start).Round(time.Millisecond))
	}
	return runner.CellResult{Result: m.Result(), Attempts: 1}
}

func cellFailure(j runner.Job, attempts int, err error) runner.CellResult {
	return runner.CellResult{Err: &runner.JobError{
		Workload: j.Workload.Name, Variant: j.Variant,
		Fingerprint: j.Fingerprint(), Attempts: attempts, Err: err,
	}, Attempts: attempts}
}

func printDetail(r sim.Result) {
	c := r.CPU
	fmt.Printf("  cycles=%d committed=%d loads=%d stores=%d\n",
		c.Cycles, c.Committed, c.Loads, c.Stores)
	fmt.Printf("  D: accesses=%d misses=%d (%.2f%%)  SB ready/pending=%d/%d  forwards=%d\n",
		c.DAccesses, c.DMisses, c.DMissRate()*100, c.SBHitsReady, c.SBHitsPending, c.Forwards)
	fmt.Printf("  branches=%d mispredicts=%d  trains=%d  TLB MR=%.3f%%\n",
		c.Branches, c.Mispredicts, c.TrainEvents, r.TLBMissRate*100)
	s := r.SB
	fmt.Printf("  SB: allocReq=%d alloc=%d denied=%d pred=%d dropped=%d issued=%d used=%d acc=%.1f%%\n",
		s.AllocationRequests, s.Allocations, s.AllocationsDenied,
		s.Predictions, s.PredictionsDropped, s.PrefetchesIssued, s.PrefetchesUsed,
		s.Accuracy()*100)
	fmt.Printf("  L1I MR=%.3f%%  L2 MR=%.1f%%  buses: L1L2=%.1f%% mem=%.1f%%\n",
		r.L1I.MissRate()*100, r.L2.MissRate()*100, r.L1L2Util*100, r.MemBusUtil*100)
	if e := r.Sampled; e != nil {
		fmt.Printf("  sampled: IPC=%.4f CI95=[%.4f, %.4f] (±%.2f%%)  intervals=%d  certainty=%d runs/%d insts\n",
			e.IPC, e.IPCLow, e.IPCHigh, e.CIRelPct, e.Intervals, e.CertaintyRuns, e.CertaintyInsts)
		fmt.Printf("  sampled work: measured=%d warmup=%d fast-forward=%d  checkpoints %d hit / %d miss\n",
			e.MeasuredInsts, e.WarmupInsts, e.FunctionalInsts, e.CheckpointHits, e.CheckpointMisses)
	}
}
