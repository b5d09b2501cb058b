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
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
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
	if *sampleAcc && (*all || *ablations || *extensions || len(figs) > 0 || len(tables) > 0 ||
		shared.Sample || *cacheDir != "") {
		return usageError("-sample-accuracy compares its own fresh exact and sampled matrices; drop the other modes, -sample and -cache-dir")
	}

	if *sampleAcc {
		// The gate's sampled leg takes the sampling knobs.
		shared.Sample = true
	}
	cfg, opts, err := shared.Config(sim.Default())
	if err != nil {
		return usageError("%v", err)
	}

	if *all {
		tables = intList{2}
		figs = intList{4, 5, 6, 7, 8, 9, 10, 11}
	}
	if len(tables) == 0 && len(figs) == 0 && !*ablations && !*extensions && !*sampleAcc {
		return usageError("nothing to do: pass -all, -table N, -fig N, -ablations, -extensions or -sample-accuracy")
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
