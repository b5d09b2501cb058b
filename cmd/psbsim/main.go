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
//	psbsim -bench turb3d -insts 50000000 -progress     # progress and ETA on stderr
//	psbsim -list                         # show benchmarks and schemes
//
// A run that panics or trips the -job-timeout watchdog prints a FAILED
// line for its cell and the remaining cells still complete. SIGINT or
// SIGTERM stops the run: the cells that finished print, and the run
// says once that it was interrupted. Exit status: 0 = clean, 1 = one
// or more cells failed, 2 = flag misuse, 130 = interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, simulates the requested cells and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := sim.Default()
	var (
		benchName = fs.String("bench", "health", "benchmark name, or 'all'")
		scheme    = fs.String("scheme", "ConfAlloc-Priority", "prefetcher scheme, or 'all'")
		l1Size    = fs.Int("l1-size", def.Mem.L1D.SizeBytes, "L1 data cache bytes")
		l1Ways    = fs.Int("l1-ways", def.Mem.L1D.Ways, "L1 data cache associativity")
		noDis     = fs.Bool("nodis", false, "disable perfect store sets (NoDis)")
		list      = fs.Bool("list", false, "list benchmarks and schemes")
		verbose   = fs.Bool("v", false, "print the full statistics block")
		jsonOut   = fs.Bool("json", false, "print each cell as canonical JSON (the exact bytes psbserved returns for the same cell)")
		progress  = fs.Bool("progress", false, "print a progress line to stderr about once a second (instructions committed across the running cells, simulation rate, ETA)")
		shared    = cli.Bind(fs)
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	// usageError prints the message plus usage and returns 2, the
	// flag-misuse status.
	usageError := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		fs.Usage()
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "  %-10s %s\n", w.Name, w.Description)
		}
		fmt.Fprintln(stdout, "schemes:")
		for _, v := range core.Variants() {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		return 0
	}

	benches := workload.All()
	if *benchName != "all" {
		w, err := workload.ByName(*benchName)
		if err != nil {
			return usageError("unknown benchmark %q: valid benchmarks are %s, or 'all'",
				*benchName, strings.Join(workload.Names(), ", "))
		}
		benches = []workload.Workload{w}
	}
	schemes := core.Variants()
	if *scheme != "all" {
		v, err := core.VariantByName(*scheme)
		if err != nil {
			return usageError("unknown scheme %q: valid schemes are %s, or 'all'",
				*scheme, strings.Join(core.VariantNames(), ", "))
		}
		schemes = []core.Variant{v}
	}

	def.Mem.L1D.SizeBytes = *l1Size
	def.Mem.L1D.Ways = *l1Ways
	if *noDis {
		def.CPU.Disambiguation = cpu.DisNone
	}
	cfg, opts, err := shared.Config(def)
	if err != nil {
		return usageError("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *progress {
		if cfg.SampleMode != sim.SampleOff {
			// Sampled runs jump between intervals and do not report
			// progress; the run is short anyway.
			fmt.Fprintln(stderr, "psbsim: -progress is not available with -sample; continuing without progress")
		} else {
			start := time.Now()
			p := &progressLine{w: stderr, total: uint64(len(benches)*len(schemes)) * cfg.MaxInsts,
				start: start, last: start, cells: map[cell]uint64{}}
			ctx = sim.WithProgress(ctx, p.report)
		}
	}

	// Fan the cross product across the worker pool; cells print in job
	// order either way, so output is identical to a serial run.
	var jobs []runner.Job
	for _, w := range benches {
		for _, v := range schemes {
			jobs = append(jobs, runner.Job{Workload: w, Variant: v, Config: cfg})
		}
	}
	cells, interrupted := runner.ForWorkers(cfg.Workers).RunChecked(ctx, jobs, opts)
	failed, finished := 0, 0
	for i, c := range cells {
		if c.Err != nil {
			if interrupted != nil && errors.Is(c.Err, interrupted) {
				continue // cut short by the interrupt, reported once below
			}
			failed++
			fmt.Fprintf(stderr, "%-10s %-22s FAILED: %v\n",
				jobs[i].Workload.Name, jobs[i].Variant, c.Err.Err)
			continue
		}
		finished++
		if *jsonOut {
			stdout.Write(results.Encode(c.Result))
			continue
		}
		fmt.Fprintln(stdout, c.Result.Summary())
		if *verbose {
			printDetail(stdout, c.Result)
		}
	}
	if *verbose && cfg.SampleMode != sim.SampleOff && !*jsonOut {
		st := sample.Shared().Stats()
		fmt.Fprintf(stdout, "checkpoint store: %.1f MiB held, %d hits / %d misses\n",
			float64(st.Bytes)/(1<<20), st.Hits, st.Misses)
	}
	if interrupted != nil {
		fmt.Fprintf(stderr, "psbsim: interrupted: %d of %d cell(s) finished\n", finished, len(cells))
		return 130
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d of %d cell(s) failed\n", failed, len(cells))
		return 1
	}
	return 0
}

// progressLine is the -progress reporter: it keeps each running cell's
// committed count and, about once a second, prints their sum against
// the whole run's budget with the rate so far and an ETA.
type progressLine struct {
	w     io.Writer
	total uint64
	start time.Time

	mu    sync.Mutex
	last  time.Time
	cells map[cell]uint64 // committed instructions so far
}

type cell struct {
	workload string
	variant  core.Variant
}

func (p *progressLine) report(w string, v core.Variant, committed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cells[cell{w, v}] = committed
	now := time.Now()
	if now.Sub(p.last) < time.Second {
		return
	}
	p.last = now
	var sum uint64
	for _, n := range p.cells {
		sum += n
	}
	rate := float64(sum) / now.Sub(p.start).Seconds()
	eta := "?"
	if rate > 0 && sum <= p.total {
		eta = time.Duration(float64(p.total-sum) / rate * float64(time.Second)).Round(time.Second).String()
	}
	fmt.Fprintf(p.w, "psbsim: %d/%d insts (%.1f%%)  %.2fM insts/s  ETA %s\n",
		sum, p.total, 100*float64(sum)/float64(p.total), rate/1e6, eta)
}

func printDetail(stdout io.Writer, r sim.Result) {
	c := r.CPU
	fmt.Fprintf(stdout, "  cycles=%d committed=%d loads=%d stores=%d\n",
		c.Cycles, c.Committed, c.Loads, c.Stores)
	fmt.Fprintf(stdout, "  D: accesses=%d misses=%d (%.2f%%)  SB ready/pending=%d/%d  forwards=%d\n",
		c.DAccesses, c.DMisses, c.DMissRate()*100, c.SBHitsReady, c.SBHitsPending, c.Forwards)
	fmt.Fprintf(stdout, "  branches=%d mispredicts=%d  trains=%d  TLB MR=%.3f%%\n",
		c.Branches, c.Mispredicts, c.TrainEvents, r.TLBMissRate*100)
	s := r.SB
	fmt.Fprintf(stdout, "  SB: allocReq=%d alloc=%d denied=%d pred=%d dropped=%d issued=%d used=%d acc=%.1f%%\n",
		s.AllocationRequests, s.Allocations, s.AllocationsDenied,
		s.Predictions, s.PredictionsDropped, s.PrefetchesIssued, s.PrefetchesUsed,
		s.Accuracy()*100)
	fmt.Fprintf(stdout, "  L1I MR=%.3f%%  L2 MR=%.1f%%  buses: L1L2=%.1f%% mem=%.1f%%\n",
		r.L1I.MissRate()*100, r.L2.MissRate()*100, r.L1L2Util*100, r.MemBusUtil*100)
	if e := r.Sampled; e != nil {
		fmt.Fprintf(stdout, "  sampled: IPC=%.4f CI95=[%.4f, %.4f] (±%.2f%%)  intervals=%d  certainty=%d runs/%d insts\n",
			e.IPC, e.IPCLow, e.IPCHigh, e.CIRelPct, e.Intervals, e.CertaintyRuns, e.CertaintyInsts)
		fmt.Fprintf(stdout, "  sampled work: measured=%d warmup=%d fast-forward=%d  checkpoints %d hit / %d miss\n",
			e.MeasuredInsts, e.WarmupInsts, e.FunctionalInsts, e.CheckpointHits, e.CheckpointMisses)
	}
}
