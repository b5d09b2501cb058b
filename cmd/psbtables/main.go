// Command psbtables regenerates the paper's evaluation artifacts:
// Table 2 and Figures 4-11, plus the repository's ablation and
// extension studies.
//
// Usage:
//
//	psbtables -all                 # every table and figure
//	psbtables -table 2             # just Table 2
//	psbtables -fig 5 -fig 6        # selected figures
//	psbtables -ablations           # the DESIGN.md ablation studies
//	psbtables -insts 1000000       # larger instruction budget
//	psbtables -csv                 # CSV instead of aligned text
//	psbtables -all -parallel -1    # fan simulations across all cores
//	psbtables -all -trace off      # re-run the functional VM per cell (pre-trace behavior)
//	psbtables -all -trace-dir traces/   # persist .psbtrace recordings and reuse them next run
//	psbtables -all -cache-dir results/  # store each finished cell; a re-run simulates only what is missing
//	psbtables -all -job-timeout 2m      # watchdog per simulation
//	psbtables -bench-json > bench.json  # time the harness legs, print their JSON
//	psbtables -all -cpuprofile cpu.out -memprofile mem.out
//
// A cell of Table 2 or Figures 4-11 that panics, deadlocks or times
// out fails alone: its table entries render as ERR, the rest of the
// suite completes, and the failures are reported on stderr. -cache-dir,
// -job-timeout and -retries apply to those cells only; the ablation
// and extension tables run their cells directly, and a failed cell
// there aborts the run. -cache-dir names a result store
// (internal/results): one <fingerprint>.psbc entry per finished cell,
// the same entries psbserved -cache-dir reads and writes. Exit status:
// 0 = clean, 1 = one or more cells failed, 2 = flag misuse, 130 =
// interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }

func (l *intList) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, regenerates the requested artifacts and returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var figs intList
	var tables intList
	var (
		all        = fs.Bool("all", false, "regenerate every table and figure")
		ablations  = fs.Bool("ablations", false, "run the ablation studies")
		extensions = fs.Bool("extensions", false, "run the extension studies (prior-work comparison, predictor shootout, loop unrolling, Markov order, per-buffer TLB)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		cacheDir   = fs.String("cache-dir", "", "result store directory: serve cells already stored there and store each finished one, so a re-run resumes (Table 2 and Figures 4-11 only; psbserved -cache-dir reads the same entries)")
		benchJSON  = fs.Bool("bench-json", false, "time RunMatrix serial vs parallel, live vs traced, and print the timings as JSON on stdout")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		sampleAcc  = fs.Bool("sample-accuracy", false, "differential accuracy gate: run the full matrix exact and sampled, print per-cell IPC errors, fail if any exceeds -sample-tolerance")
		sampleTol  = fs.Float64("sample-tolerance", 3.0, "maximum per-cell relative IPC error percent -sample-accuracy accepts")
		shared     = cli.Bind(fs)
	)
	fs.Var(&figs, "fig", "figure number to regenerate (repeatable: 4..11)")
	fs.Var(&tables, "table", "table number to regenerate (repeatable: 2)")
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

	// Reject bad requests before simulating anything.
	for _, f := range figs {
		if f < 4 || f > 11 {
			return usageError("unknown figure %d: valid figures are 4..11", f)
		}
	}
	for _, tn := range tables {
		if tn != 2 {
			return usageError("unknown table %d: the only reproducible table is 2 (the paper's Table 1 is prose)", tn)
		}
	}
	if *benchJSON && (*all || *ablations || *extensions || len(figs) > 0 || len(tables) > 0) {
		return usageError("-bench-json runs its own fixed matrix; drop -all/-fig/-table/-ablations/-extensions")
	}
	if *sampleAcc && (*all || *ablations || *extensions || *benchJSON || len(figs) > 0 || len(tables) > 0) {
		return usageError("-sample-accuracy runs its own exact-vs-sampled matrix; drop the other modes")
	}
	if shared.Sample && (*benchJSON || *sampleAcc) {
		return usageError("-sample does not combine with -bench-json or -sample-accuracy (they run their own sampled legs)")
	}
	if *cacheDir != "" && (*benchJSON || *sampleAcc) {
		return usageError("-cache-dir does not combine with -bench-json or -sample-accuracy (they time and compare fresh simulations)")
	}

	if *sampleAcc {
		// The gate's sampled leg takes the sampling knobs.
		shared.Sample = true
	}
	cfg, opts, err := shared.Config(sim.Default())
	if err != nil {
		return usageError("%v", err)
	}
	if cfg.CPU.CycleMode == cpu.CycleModeAccurate && *cacheDir != "" {
		return usageError("-cache-dir does not combine with -cycle-mode accurate: a stored cell's fingerprint leaves out the cycle mode, and accurate-mode result bytes carry zero skip telemetry (SkippedCycles, Jumps)")
	}

	if *all {
		tables = intList{2}
		figs = intList{4, 5, 6, 7, 8, 9, 10, 11}
	}
	if len(tables) == 0 && len(figs) == 0 && !*ablations && !*extensions && !*benchJSON && !*sampleAcc {
		return usageError("nothing to do: pass -all, -table N, -fig N, -ablations, -extensions or -bench-json")
	}

	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "cache-dir: %v\n", err)
			return 1
		}
		opts.Store = results.New(*cacheDir)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *sampleAcc {
		if err := sampleAccuracy(cfg, *sampleTol, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *benchJSON {
		if err := benchRunner(cfg, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	// SIGINT/SIGTERM cancel the run: in-flight simulations stop at
	// their next context check, completed cells stay in the result
	// store, and the tables built so far render unfinished cells as ERR.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := experiments.NewSession(ctx, cfg, opts)

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Fprintln(stdout, t.Title)
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}

	needMatrix := len(tables) > 0
	for _, f := range figs {
		if f >= 5 && f <= 9 {
			needMatrix = true
		}
	}
	var m *experiments.Matrix
	if needMatrix {
		fmt.Fprintf(stderr, "running %d benchmarks x %d schemes at %d instructions each (workers=%d, trace=%s)...\n",
			len(workload.All()), len(experiments.Schemes()), cfg.MaxInsts,
			runner.ForWorkers(cfg.Workers).Workers(), cfg.TraceMode)
		m = s.Matrix()
	}

	for _, tn := range tables {
		if tn == 2 {
			emit(experiments.Table2(m))
		}
	}
	for _, f := range figs {
		switch f {
		case 4:
			emit(s.Fig4())
		case 5:
			emit(experiments.Fig5(m))
		case 6:
			emit(experiments.Fig6(m))
		case 7:
			emit(experiments.Fig7(m))
		case 8:
			emit(experiments.Fig8(m))
		case 9:
			emit(experiments.Fig9(m))
		case 10:
			emit(s.Fig10())
		case 11:
			emit(s.Fig11())
		}
	}

	studies := experiments.NewStudies(cfg)
	var studyTables []func() *stats.Table
	if *ablations {
		studyTables = append(studyTables, studies.AblationMarkovDelta, studies.AblationAllocation, studies.AblationScheduler,
			studies.AblationGeometry, studies.AblationMarkovSize, studies.AblationOverlap)
	}
	if *extensions {
		studyTables = append(studyTables, studies.PriorWork, studies.PredictorShootout, studies.AblationMarkovOrder,
			studies.AblationStreamTLB, studies.AblationUnrolling)
	}
	for _, table := range studyTables {
		emit(table())
	}

	if s.Cached() > 0 {
		fmt.Fprintf(stderr, "cache-dir %s satisfied %d cell(s); %d simulated\n", *cacheDir, s.Cached(), s.Ran())
	}
	if report := s.FailureReport(); report != "" {
		fmt.Fprint(stderr, report)
		if errors.Is(ctx.Err(), context.Canceled) {
			if *cacheDir != "" {
				fmt.Fprintf(stderr, "interrupted: completed cells are stored in %s; re-run with the same -cache-dir to continue\n", *cacheDir)
			} else {
				fmt.Fprintln(stderr, "interrupted: nothing was stored; pass -cache-dir DIR to keep completed cells")
			}
			return 130
		}
		return 1
	}
	if ctx.Err() != nil {
		return 130
	}
	return 0
}

// benchRunner times six full RunMatrix configurations — serial and
// all-cores with tracing off and with the in-memory trace cache, then
// warm-cache serial legs in accurate and event cycle modes — plus the
// functional and sampled legs, and prints the headline runner numbers
// as JSON on stdout (CI's benchmark smoke asserts on them). The first
// traced leg includes the one-time recording cost: the
// cache starts cold, so its time is what a user sees on a first traced
// invocation; every later leg measures the warm steady state, which is
// also what makes the accurate-vs-event comparison apples-to-apples.
// A failed cell in any leg fails the run: its timing would cover less
// work than the other legs'.
func benchRunner(cfg sim.Config, stdout, stderr io.Writer) error {
	sims := len(workload.All()) * len(experiments.Schemes())

	var failed int
	matrix := func(workers int, tm sim.TraceMode, cm cpu.CycleMode) (float64, *experiments.Matrix) {
		c := cfg
		c.Workers = workers
		c.TraceMode = tm
		c.TraceDir = ""
		c.CPU.CycleMode = cm
		start := time.Now()
		m := experiments.RunMatrix(c)
		failed += m.Failed()
		return time.Since(start).Seconds(), m
	}

	serialSec, _ := matrix(0, sim.TraceOff, cfg.CPU.CycleMode)
	parSec, _ := matrix(-1, sim.TraceOff, cfg.CPU.CycleMode)
	serialTracedSec, _ := matrix(0, sim.TraceMemory, cfg.CPU.CycleMode)
	parTracedSec, _ := matrix(-1, sim.TraceMemory, cfg.CPU.CycleMode)
	accurateSec, _ := matrix(0, sim.TraceMemory, cpu.CycleModeAccurate)
	eventSec, em := matrix(0, sim.TraceMemory, cpu.CycleModeEvent)
	if failed > 0 {
		return fmt.Errorf("bench-json: %d cell(s) failed to simulate", failed)
	}

	// Functional fast-forward leg: the sampled engine's executor over
	// replays of the same warm recordings, decoding them in batches as
	// sampled runs do, with no timing model at all. Its throughput
	// against the serial event leg is the headline fast-forward
	// speedup. The Source calls sit outside the timed region (the
	// recordings are warm from the traced legs above).
	type funcLeg struct {
		f *cpu.Functional
	}
	var funcLegs []funcLeg
	for _, w := range workload.All() {
		c := cfg
		c.TraceMode = sim.TraceMemory
		rep, err := trace.Shared().Source(sim.TraceKey(w, c), sim.TraceNeed(c), "",
			func() *vm.Machine { return w.Build(c.Seed) })
		if err != nil {
			return err
		}
		funcLegs = append(funcLegs, funcLeg{f: cpu.NewFunctionalStream(c.Mem, c.CPU.Gshare, rep)})
	}
	funcStart := time.Now()
	var funcInsts uint64
	for _, l := range funcLegs {
		funcInsts += l.f.AdvanceTo(cfg.MaxInsts)
	}
	funcSec := time.Since(funcStart).Seconds()

	// Sampled leg: the full matrix under sampled simulation (serial,
	// warm trace, event clock — the apples-to-apples peer of eventSec).
	// Alongside the wall clock it yields the estimate-vs-exact IPC
	// error against the event matrix and the checkpoint-sharing
	// counters.
	sampledCfg := cfg
	sampledCfg.Workers = 0
	sampledCfg.TraceMode = sim.TraceMemory
	sampledCfg.TraceDir = ""
	sampledCfg.CPU.CycleMode = cpu.CycleModeEvent
	sampledCfg.SampleMode = sim.SampleOn
	start := time.Now()
	sm := experiments.RunMatrix(sampledCfg)
	sampledSec := time.Since(start).Seconds()
	if n := sm.Failed(); n > 0 {
		return fmt.Errorf("bench-json: %d sampled cell(s) failed to simulate", n)
	}
	var maxRelErr float64
	var ckHits, ckMisses, ffInsts uint64
	for name, row := range sm.Results {
		for v, r := range row {
			est := r.Sampled
			if est == nil {
				continue
			}
			ckHits += est.CheckpointHits
			ckMisses += est.CheckpointMisses
			ffInsts += est.FunctionalInsts
			if exact, ok := em.Results[name][v]; ok && exact.IPC() > 0 {
				if rel := 100 * math.Abs(est.IPC-exact.IPC()) / exact.IPC(); rel > maxRelErr {
					maxRelErr = rel
				}
			}
		}
	}
	ts := trace.Shared().Stats()

	// Aggregate the event loop's telemetry across the matrix.
	var totalCycles, skipped, jumps, committed uint64
	for _, row := range em.Results {
		for _, r := range row {
			totalCycles += r.CPU.Cycles
			skipped += r.CPU.SkippedCycles
			jumps += r.CPU.Jumps
			committed += r.CPU.Committed
		}
	}
	skipFrac := 0.0
	if totalCycles > 0 {
		skipFrac = float64(skipped) / float64(totalCycles)
	}

	workers := runner.ForWorkers(-1).Workers()
	degraded := workers == 1
	if degraded {
		fmt.Fprintf(stderr,
			"warning: only 1 worker available (GOMAXPROCS=%d); parallel legs are degraded to serial and their speedups are meaningless\n",
			runtime.GOMAXPROCS(0))
	}

	totalInsts := float64(cfg.MaxInsts) * float64(sims)
	out := struct {
		Insts            uint64  `json:"insts_per_sim"`
		Sims             int     `json:"sims"`
		WorkersFlag      int     `json:"workers_flag"`
		Workers          int     `json:"workers"`
		GOMAXPROCS       int     `json:"gomaxprocs"`
		Degraded         bool    `json:"degraded"`
		CycleMode        string  `json:"cycle_mode"`
		SerialSec        float64 `json:"serial_sec"`
		ParallelSec      float64 `json:"parallel_sec"`
		SerialTracedSec  float64 `json:"serial_traced_sec"`
		ParTracedSec     float64 `json:"parallel_traced_sec"`
		AccurateSec      float64 `json:"serial_traced_accurate_sec"`
		EventSec         float64 `json:"serial_traced_event_sec"`
		SampledSec       float64 `json:"sampled_sec"`
		SpeedupSampled   float64 `json:"speedup_sampled"`
		IPCRelErr        float64 `json:"ipc_rel_err"`
		FuncInstsPerSec  float64 `json:"functional_insts_per_sec"`
		SpeedupFunc      float64 `json:"speedup_functional"`
		SampleCkptHits   uint64  `json:"sample_checkpoint_hits"`
		SampleCkptMisses uint64  `json:"sample_checkpoint_misses"`
		SampleFFInsts    uint64  `json:"sample_functional_insts"`
		SimsPerSecPar    float64 `json:"sims_per_sec_parallel"`
		SimsPerSecBest   float64 `json:"sims_per_sec_parallel_traced"`
		InstsPerSecBest  float64 `json:"insts_per_sec_parallel_traced"`
		InstsPerSecEvent float64 `json:"insts_per_sec_serial_event"`
		SpeedupParallel  float64 `json:"speedup_parallel"`
		SpeedupTrace     float64 `json:"speedup_trace"`
		SpeedupCombined  float64 `json:"speedup_combined"`
		SpeedupEvent     float64 `json:"speedup_event"`
		TotalCycles      uint64  `json:"total_cycles"`
		SkippedCycles    uint64  `json:"skipped_cycles"`
		Jumps            uint64  `json:"jumps"`
		SkipFraction     float64 `json:"skip_fraction"`
		TraceHits        uint64  `json:"trace_hits"`
		TraceMisses      uint64  `json:"trace_misses"`
		TraceRecordedIns uint64  `json:"trace_recorded_insts"`
	}{
		Insts:            cfg.MaxInsts,
		Sims:             sims,
		WorkersFlag:      -1,
		Workers:          workers,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Degraded:         degraded,
		CycleMode:        cfg.CPU.CycleMode.String(),
		SerialSec:        serialSec,
		ParallelSec:      parSec,
		SerialTracedSec:  serialTracedSec,
		ParTracedSec:     parTracedSec,
		AccurateSec:      accurateSec,
		EventSec:         eventSec,
		SampledSec:       sampledSec,
		SpeedupSampled:   eventSec / sampledSec,
		IPCRelErr:        maxRelErr,
		FuncInstsPerSec:  float64(funcInsts) / funcSec,
		SpeedupFunc:      (float64(funcInsts) / funcSec) / (totalInsts / eventSec),
		SampleCkptHits:   ckHits,
		SampleCkptMisses: ckMisses,
		SampleFFInsts:    ffInsts,
		SimsPerSecPar:    float64(sims) / parSec,
		SimsPerSecBest:   float64(sims) / parTracedSec,
		InstsPerSecBest:  totalInsts / parTracedSec,
		InstsPerSecEvent: totalInsts / eventSec,
		SpeedupParallel:  serialSec / parSec,
		SpeedupTrace:     serialSec / serialTracedSec,
		SpeedupCombined:  serialSec / parTracedSec,
		SpeedupEvent:     accurateSec / eventSec,
		TotalCycles:      totalCycles,
		SkippedCycles:    skipped,
		Jumps:            jumps,
		SkipFraction:     skipFrac,
		TraceHits:        ts.Hits,
		TraceMisses:      ts.Misses,
		TraceRecordedIns: ts.RecordedInsts,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr,
		"bench-json: %d sims, serial %.2fs, parallel %.2fs (%d workers), traced serial %.2fs, traced parallel %.2fs, accurate %.2fs vs event %.2fs (%.2fx, %.0f%% cycles skipped)\n",
		sims, serialSec, parSec, out.Workers, serialTracedSec, parTracedSec,
		accurateSec, eventSec, out.SpeedupEvent, skipFrac*100)
	fmt.Fprintf(stderr,
		"sampled: %.2fs (%.2fx vs event), max IPC err %.2f%%, functional %.2fM insts/s (%.1fx vs serial event), checkpoints %d hit / %d miss\n",
		sampledSec, out.SpeedupSampled, maxRelErr,
		out.FuncInstsPerSec/1e6, out.SpeedupFunc, ckHits, ckMisses)
	fmt.Fprintln(stdout, string(b))
	return nil
}

// sampleAccuracy is the differential gate behind CI's sample-accuracy
// job: the full benchmark x scheme matrix runs exact and sampled under
// identical budgets, every cell's sampled IPC estimate is compared
// against the exact run, and any relative error beyond tolPct fails
// the command. The per-cell table goes to stdout so the CI artifact
// shows exactly which cell drifted. cfg is the sampled configuration;
// the exact leg runs it with sampling off.
func sampleAccuracy(cfg sim.Config, tolPct float64, stdout, stderr io.Writer) error {
	exactCfg := cfg
	exactCfg.SampleMode = sim.SampleOff

	fmt.Fprintf(stderr, "sample-accuracy: %d benchmarks x %d schemes at %d insts, tolerance ±%.1f%%\n",
		len(workload.All()), len(experiments.Schemes()), cfg.MaxInsts, tolPct)
	start := time.Now()
	exact := experiments.RunMatrix(exactCfg)
	exactSec := time.Since(start).Seconds()
	start = time.Now()
	sampled := experiments.RunMatrix(cfg)
	sampledSec := time.Since(start).Seconds()
	if n := exact.Failed() + sampled.Failed(); n > 0 {
		return fmt.Errorf("sample-accuracy: %d cell(s) failed to simulate", n)
	}

	var worst float64
	var worstCell string
	fails := 0
	for _, w := range workload.All() {
		for _, v := range experiments.Schemes() {
			e := exact.Results[w.Name][v]
			s := sampled.Results[w.Name][v]
			est := s.Sampled
			if est == nil {
				return fmt.Errorf("sample-accuracy: cell %s/%s carries no sampled estimate", w.Name, v)
			}
			if e.IPC() == 0 {
				return fmt.Errorf("sample-accuracy: cell %s/%s has zero exact IPC", w.Name, v)
			}
			rel := 100 * math.Abs(est.IPC-e.IPC()) / e.IPC()
			status := "ok"
			if rel > tolPct {
				status = "FAIL"
				fails++
			}
			fmt.Fprintf(stdout, "%-10s %-22s exact %.4f  sampled %.4f  err %5.2f%%  ci ±%5.2f%%  n=%-3d %s\n",
				w.Name, v, e.IPC(), est.IPC, rel, est.CIRelPct, est.Intervals, status)
			if rel > worst {
				worst = rel
				worstCell = fmt.Sprintf("%s/%s", w.Name, v)
			}
		}
	}
	fmt.Fprintf(stderr, "sample-accuracy: worst %.2f%% (%s); exact matrix %.1fs, sampled %.1fs (%.2fx)\n",
		worst, worstCell, exactSec, sampledSec, exactSec/sampledSec)
	if fails > 0 {
		return fmt.Errorf("sample-accuracy: %d cell(s) exceed ±%.1f%% relative IPC error", fails, tolPct)
	}
	return nil
}
