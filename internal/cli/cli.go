// Package cli binds the command-line flags the simulator binaries
// share and resolves them into a simulation configuration. psbsim and
// psbtables take all twelve; psbserved takes six and psbtrace three.
// Each flag's name, default and help text is declared here once, and
// so are the rules that combine them: -trace off with -trace-dir is
// misuse, the sampling knobs count only under -sample, and a
// configuration that does not validate — a zero instruction budget,
// which no benchmark completes, among them — is flag misuse.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Flags holds the shared flags' values once their flag set has parsed.
// Fields a binder did not declare keep their zero values, but for
// Trace, which reads memory: the mode a binary without -trace records
// in.
type Flags struct {
	Insts      uint64
	Seed       int64
	Trace      string
	TraceDir   string
	JobTimeout time.Duration
	Retries    int

	CycleMode    string
	Parallel     int
	Sample       bool
	SamplePeriod uint64
	SampleLen    uint64
	SampleWarmup uint64
}

// BindStream declares the three flags that name a workload's
// instruction stream and where its recording is kept: -insts, -seed
// and -trace-dir.
func BindStream(fs *flag.FlagSet) *Flags {
	def := sim.Default()
	f := &Flags{Trace: sim.TraceMemory.String()}
	fs.Uint64Var(&f.Insts, "insts", def.MaxInsts, "instruction budget: instructions each workload runs for")
	fs.Int64Var(&f.Seed, "seed", def.Seed, "workload layout seed")
	fs.StringVar(&f.TraceDir, "trace-dir", "", "directory for .psbtrace recordings, shared by every run and binary that names it")
	return f
}

// BindServe declares the six flags a server shares with the batch
// tools: BindStream's three, -trace, -job-timeout (defaulting to
// jobTimeout) and -retries.
func BindServe(fs *flag.FlagSet, jobTimeout time.Duration) *Flags {
	f := BindStream(fs)
	fs.StringVar(&f.Trace, "trace", sim.TraceMemory.String(), "instruction stream source: off = live functional execution per cell, memory = record each workload once and replay (bit-identical; -trace-dir persists the recordings)")
	fs.DurationVar(&f.JobTimeout, "job-timeout", jobTimeout, "wall-clock budget per simulation attempt (0 = unlimited)")
	fs.IntVar(&f.Retries, "retries", runner.DefaultOptions().Retries, "re-runs allowed per cell after a panic or timeout")
	return f
}

// Bind declares all twelve shared flags: BindServe's six with no
// -job-timeout limit, plus -cycle-mode, -parallel, -sample,
// -sample-period, -sample-len and -sample-warmup.
func Bind(fs *flag.FlagSet) *Flags {
	f := BindServe(fs, 0)
	fs.StringVar(&f.CycleMode, "cycle-mode", "", "clock advancement: event = skip to the next event (the default, which PSB_CYCLE_MODE=accurate overrides for the test suite), accurate = tick every cycle (reference mode; machine statistics match, only the skip telemetry differs)")
	fs.IntVar(&f.Parallel, "parallel", 0, "concurrent simulations: 0 = serial, N = N workers, -1 = all cores")
	fs.BoolVar(&f.Sample, "sample", false, "sampled simulation for every cell: functional fast-forward between detailed measurement intervals, and an IPC estimate with confidence bounds")
	fs.Uint64Var(&f.SamplePeriod, "sample-period", 0, "instructions between measurement intervals (0 = default)")
	fs.Uint64Var(&f.SampleLen, "sample-len", 0, "measured instructions per interval (0 = default)")
	fs.Uint64Var(&f.SampleWarmup, "sample-warmup", 0, "detailed-but-unmeasured warm-up instructions per interval (0 = default)")
	return f
}

// Config applies the flags to base, which carries the binary's own
// settings, and returns the validated configuration and the checked
// runner's options. The sampling knobs are copied only under -sample:
// they are part of a cell's fingerprint, so an exact cell must not
// carry them. Every error is flag misuse.
func (f *Flags) Config(base sim.Config) (sim.Config, runner.Options, error) {
	cfg := base
	cfg.MaxInsts = f.Insts
	cfg.Seed = f.Seed
	cfg.Workers = f.Parallel
	var err error
	if cfg.TraceMode, err = traceMode(f.Trace, f.TraceDir); err != nil {
		return sim.Config{}, runner.Options{}, err
	}
	cfg.TraceDir = f.TraceDir
	if cfg.CPU.CycleMode, err = cpu.ParseCycleMode(f.CycleMode); err != nil {
		return sim.Config{}, runner.Options{}, err
	}
	if f.Sample {
		cfg.SampleMode = sim.SampleOn
		cfg.SamplePeriod = f.SamplePeriod
		cfg.SampleLen = f.SampleLen
		cfg.SampleWarmup = f.SampleWarmup
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, runner.Options{}, fmt.Errorf("invalid configuration: %w", err)
	}
	return cfg, runner.Options{Timeout: f.JobTimeout, Retries: f.Retries}, nil
}

// traceMode resolves the -trace and -trace-dir pair. A directory with
// tracing off is an error: it would silently record nothing.
func traceMode(mode, dir string) (sim.TraceMode, error) {
	m, err := sim.ParseTraceMode(mode)
	if err != nil {
		return sim.TraceOff, err
	}
	if dir != "" && m == sim.TraceOff {
		return sim.TraceOff, errors.New("-trace off records nothing, so -trace-dir would be ignored; drop one of the two")
	}
	return m, nil
}
