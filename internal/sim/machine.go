package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Machine is one resumable simulation: RunChecked split into
// build / advance / result phases so a caller can interleave many
// machines over the same wall-clock span. The batched lockstep path in
// internal/runner advances K same-trace machines a few thousand
// instructions at a time, so they decode the same region of one shared
// recording while it is hot in cache; a Machine advanced in any number
// of steps is bit-identical to an unpaused RunChecked of the same job.
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !v.Known() {
		return nil, &ConfigError{Field: "Variant",
			Err: fmt.Errorf("unknown variant %d", int(v))}
	}
	if cfg.SampleMode != SampleOff {
		// Sampled runs manage their own interval machines; they cannot
		// be lockstepped (Validate already rejects Batch > 0, this
		// covers direct Machine construction).
		return nil, &ConfigError{Field: "SampleMode",
			Err: fmt.Errorf("sampled simulation cannot run as a resumable Machine; use Run or RunChecked")}
	}
	m, err := build(w, v, cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{w: w, v: v, cfg: cfg, m: m}, nil
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
