package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sbuf"
	"repro/internal/workload"
)

// Machine is one exact simulation split into build, advance and result
// phases; psbsim -progress advances one in chunks and reports progress
// between them. A Machine advanced in any number of steps is
// bit-identical to RunChecked's single step.
type Machine struct {
	w    workload.Workload
	v    core.Variant
	cfg  Config
	m    machine
	done bool
	err  error
}

// NewMachine validates the configuration and builds the simulated
// machine without running any cycles. The error cases are exactly
// RunChecked's pre-run ones: a *ConfigError or a trace-cache failure.
func NewMachine(w workload.Workload, v core.Variant, cfg Config) (*Machine, error) {
	if err := validateJob(v, cfg); err != nil {
		return nil, err
	}
	if cfg.SampleMode != SampleOff {
		// Sampled runs build and rewarm their own interval machine
		// (see runSampled).
		return nil, &ConfigError{Field: "SampleMode",
			Err: fmt.Errorf("sampled simulation cannot run as a resumable Machine; use Run or RunChecked")}
	}
	m, err := build(w, cfg, cfg.Scheme(v).Build)
	if err != nil {
		return nil, err
	}
	return &Machine{w: w, v: v, cfg: cfg, m: m}, nil
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
	_, err = m.cpu.Advance(ctx, cfg.MaxInsts, 0)
	return m.result(w, v, m.cpu.Stats()), err
}

// Advance runs the simulation until at least stopAt instructions have
// committed (an absolute count; 0 means run to the configured budget
// without pausing) and reports whether the run finished. Once the run
// has finished or failed, further calls return immediately with the
// same outcome. Errors match RunChecked's: a *cpu.DeadlockError or
// ctx's error.
func (s *Machine) Advance(ctx context.Context, stopAt uint64) (bool, error) {
	if s.done || s.err != nil {
		return s.done, s.err
	}
	done, err := s.m.cpu.Advance(ctx, s.cfg.MaxInsts, stopAt)
	s.done, s.err = done, err
	return done, err
}

// Committed returns the number of instructions committed so far.
func (s *Machine) Committed() uint64 { return s.m.cpu.Stats().Committed }

// Result assembles the run's Result from whatever has been simulated
// so far (normally called once Advance reports done).
func (s *Machine) Result() Result {
	return s.m.result(s.w, s.v, s.m.cpu.Stats())
}
