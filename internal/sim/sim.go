// Package sim composes the full simulated machine — out-of-order core,
// memory hierarchy, prefetcher and workload — and runs timing
// experiments. It is the entry point the command-line tools, examples
// and benchmark harness build on.
package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/sample"
	"repro/internal/sbuf"
	"repro/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	CPU  cpu.Config
	Mem  mem.Config
	Opts core.Options

	// MaxInsts bounds the run (committed instructions).
	MaxInsts uint64
	// Seed drives workload heap layout.
	Seed int64
	// CollectFig4 attaches the Markov delta-bits histogram.
	CollectFig4 bool

	// Workers is the number of simulations the experiment drivers
	// (internal/experiments, via internal/runner) may run concurrently:
	// 0 means serial, n > 0 means n workers, n < 0 means one worker per
	// available CPU. An individual Run is always single-threaded, and
	// results do not depend on Workers (see internal/runner).
	Workers int

	// TraceMode selects how the run obtains its instruction stream:
	// live functional execution (TraceOff), the process-wide trace
	// cache (TraceMemory), or the cache backed by .psbtrace files in
	// TraceDir (TraceDisk). Results are identical in every mode; see
	// internal/trace.
	TraceMode TraceMode
	// TraceDir is the trace directory TraceDisk loads from and saves
	// to. Ignored in the other modes.
	TraceDir string

	// SampleMode turns on SMARTS-style sampled simulation: detailed
	// measurement intervals every SamplePeriod instructions (SampleLen
	// measured after a SampleWarmup detailed prefix), functional
	// fast-forward between them, and an IPC estimate with confidence
	// bounds in Result.Sampled. Sampling changes the statistics a run
	// reports, so unlike Workers and TraceMode these four fields are
	// result-affecting and participate in job fingerprints. A sampled
	// run replays its stream from the trace cache whatever TraceMode
	// says; zero parameter fields select the Default* constants in
	// sample.go.
	SampleMode   SampleMode
	SamplePeriod uint64
	SampleLen    uint64
	SampleWarmup uint64
}

// Default returns the paper's baseline machine with a 500K-instruction
// budget — large enough for every benchmark to settle into steady
// state, small enough to keep the full harness fast.
func Default() Config {
	return Config{
		CPU:      cpu.DefaultConfig(),
		Mem:      mem.DefaultConfig(),
		Opts:     core.DefaultOptions(),
		MaxInsts: 500_000,
		Seed:     1,
	}
}

// Result is the outcome of one run.
type Result struct {
	Workload string
	Variant  core.Variant

	CPU cpu.Stats
	SB  sbuf.Stats

	L1D, L1I, L2 mem.CacheStats
	L1L2Util     float64
	MemBusUtil   float64
	TLBMissRate  float64

	Hist *predict.DeltaHistogram

	// Sampled carries the sampling estimate (IPC point estimate,
	// confidence interval, work accounting) when the run used
	// SampleOn. It is nil for exact runs and omitted from their JSON
	// encoding entirely, keeping exact output byte-identical to
	// pre-sampling builds.
	Sampled *sample.Estimate `json:",omitempty"`
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 { return r.CPU.IPC() }

// SpeedupOver returns the percent IPC speedup of r over base.
func (r Result) SpeedupOver(base Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (r.IPC()/base.IPC() - 1) * 100
}

// machine bundles the private simulated machine one Run builds.
type machine struct {
	cpu  *cpu.CPU
	hier *mem.Hierarchy
	pf   sbuf.Prefetcher
	hist *predict.DeltaHistogram
}

// ResolvedOpts returns Opts with the fields the memory configuration
// decides: the stream-buffer blocks and SFM block shift follow the L1D
// line, and the stream buffers' pages the DTLB's. Scheme builds from
// it and job fingerprints key it, so configurations that differ only
// in what those fields say share one machine and one fingerprint.
func (cfg Config) ResolvedOpts() core.Options {
	opts := cfg.Opts
	opts.Buffers.BlockBytes = cfg.Mem.L1D.BlockBytes
	opts.Buffers.PageBytes = cfg.Mem.PageBytes
	opts.SFM.BlockShift = blockShift(cfg.Mem.L1D.BlockBytes)
	return opts
}

// Scheme resolves variant v under cfg's resolved options (core.Resolve).
func (cfg Config) Scheme(v core.Variant) core.Scheme {
	return core.Resolve(v, cfg.ResolvedOpts())
}

// build constructs a fresh machine for one run, its prefetcher made by
// newPF over the memory hierarchy. The only error source is the trace
// cache (disk I/O); with TraceOff it never fails.
func build(w workload.Workload, cfg Config, newPF func(sbuf.Fetcher) sbuf.Prefetcher) (machine, error) {
	src, err := source(w, cfg)
	if err != nil {
		return machine{}, err
	}
	m := machine{hier: mem.New(cfg.Mem)}
	m.pf = newPF(m.hier)
	m.cpu = cpu.New(cfg.CPU, m.hier, m.pf, src)
	if cfg.CollectFig4 {
		m.hist = predict.NewDeltaHistogram(1<<16, blockShift(cfg.Mem.L1D.BlockBytes))
		m.cpu.SetDeltaHistogram(m.hist)
	}
	return m, nil
}

// result assembles the Result of a finished (or aborted) run.
func (m machine) result(w workload.Workload, v core.Variant, st cpu.Stats) Result {
	return Result{
		Workload:    w.Name,
		Variant:     v,
		CPU:         st,
		SB:          m.pf.Stats(),
		L1D:         m.hier.L1D.Stats(),
		L1I:         m.hier.L1I.Stats(),
		L2:          m.hier.L2.Stats(),
		L1L2Util:    m.hier.L1L2.Utilization(st.Cycles),
		MemBusUtil:  m.hier.MemBus.Utilization(st.Cycles),
		TLBMissRate: m.hier.DTLB.MissRate(),
		Hist:        m.hist,
	}
}

// RunChecked is Run with errors as values: the configuration is
// validated up front (returning a *ConfigError before any simulation
// work), the cpu no-commit watchdog surfaces as a *cpu.DeadlockError
// instead of a panic, and ctx cancellation or deadline aborts the run
// with ctx's error. On error the Result still carries whatever was
// simulated up to the abort. Like Run, RunChecked is safe for
// concurrent use and deterministic for equal arguments.
func RunChecked(ctx context.Context, w workload.Workload, v core.Variant, cfg Config) (Result, error) {
	if err := validateJob(v, cfg); err != nil {
		return Result{}, err
	}
	return run(ctx, w, v, cfg, cfg.Scheme(v).Build)
}

// run simulates w under a validated cfg with the prefetcher newPF
// makes, reporting it as variant v.
func run(ctx context.Context, w workload.Workload, v core.Variant, cfg Config, newPF func(sbuf.Fetcher) sbuf.Prefetcher) (Result, error) {
	if cfg.SampleMode != SampleOff {
		return runSampled(ctx, w, v, cfg, newPF)
	}
	m, err := build(w, cfg, newPF)
	if err != nil {
		return Result{}, err
	}
	err = m.advance(ctx, w, v, cfg.MaxInsts)
	return m.result(w, v, m.cpu.Stats()), err
}

// ProgressFunc receives an exact run's progress: the workload and
// variant of the cell and the instructions it has committed so far.
// Calls come from every goroutine running a cell, so a ProgressFunc
// must be safe for concurrent use.
type ProgressFunc func(workload string, v core.Variant, committed uint64)

type progressKey struct{}

// progressChunk is how many instructions an exact run under a
// WithProgress context commits between reports.
const progressChunk = 10_000

// WithProgress returns a context under which every exact run calls
// report after each progressChunk instructions and once when it ends.
// Reporting never changes a result: a run advanced in chunks is
// bit-identical to one advanced in a single step. Sampled runs do not
// report.
func WithProgress(ctx context.Context, report ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, report)
}

// advance runs m's core to maxInsts committed instructions, in chunks
// when ctx carries a progress reporter.
func (m machine) advance(ctx context.Context, w workload.Workload, v core.Variant, maxInsts uint64) error {
	report, _ := ctx.Value(progressKey{}).(ProgressFunc)
	if report == nil {
		_, err := m.cpu.Advance(ctx, maxInsts, 0)
		return err
	}
	for {
		done, err := m.cpu.Advance(ctx, maxInsts, m.cpu.Stats().Committed+progressChunk)
		report(w.Name, v, m.cpu.Stats().Committed)
		if done || err != nil {
			return err
		}
	}
}

// Run simulates the workload under the given prefetcher variant. It
// is RunChecked without a context, panicking on any error: an invalid
// configuration, a simulated deadlock or a trace-cache failure.
//
// Run is safe for concurrent use: every call builds a private machine,
// memory hierarchy and prefetcher, and the packages it draws on keep
// no mutable package-level state (workload registration happens at
// init time and is read-only afterwards). Two concurrent Runs with
// equal arguments return equal Results.
func Run(w workload.Workload, v core.Variant, cfg Config) Result {
	r, err := RunChecked(context.Background(), w, v, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// RunWithPrefetcher is Run with the prefetcher newPF makes over the
// memory system (an edited core.Scheme's Build, or a wrapper around
// one) in place of a variant's. It reports Variant core.None.
func RunWithPrefetcher(w workload.Workload, cfg Config,
	newPF func(fetch sbuf.Fetcher) sbuf.Prefetcher) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r, err := run(context.Background(), w, core.None, cfg, newPF)
	if err != nil {
		panic(err)
	}
	return r
}

func blockShift(blockBytes int) uint {
	s := uint(0)
	for 1<<s < blockBytes {
		s++
	}
	return s
}

// Summary renders the headline numbers of a result in one line.
func (r Result) Summary() string {
	s := fmt.Sprintf("%-10s %-18s IPC=%.3f MR=%.1f%% loadLat=%.1f acc=%.1f%% L1L2=%.1f%% mem=%.1f%%",
		r.Workload, r.Variant, r.IPC(), r.CPU.DMissRate()*100,
		r.CPU.AvgLoadLatency(), r.SB.Accuracy()*100,
		r.L1L2Util*100, r.MemBusUtil*100)
	if r.CPU.Jumps > 0 {
		s += fmt.Sprintf(" skip=%.1f%%/%dj/%.1fc",
			r.CPU.SkipFraction()*100, r.CPU.Jumps, r.CPU.AvgJumpLen())
	}
	if e := r.Sampled; e != nil {
		s += fmt.Sprintf(" sampled[IPC=%.3f ci=%.1f%% n=%d]", e.IPC, e.CIRelPct, e.Intervals)
	}
	return s
}
