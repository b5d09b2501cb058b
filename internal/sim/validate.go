package sim

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ConfigError reports an invalid simulation configuration, detected by
// Validate before any simulation work starts. It is the errors-as-
// values form of the geometry panics the component constructors raise.
type ConfigError struct {
	// Field is the dotted path of the offending component, e.g.
	// "Mem.L1D" or "Opts.SFM".
	Field string
	// Err is the component's own validation error.
	Err error
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config at %s: %v", e.Field, e.Err)
}

// Unwrap exposes the component error to errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Err }

// Validate reports whether the configuration can build and run a
// simulation without a geometry panic. It checks the prefetcher
// options as Scheme resolves them (stream-buffer blocks track the L1D
// line), so fields Run overrides are not a reason to reject a config.
// Every error is a *ConfigError naming the offending component.
func (cfg Config) Validate() error {
	if err := cfg.CPU.Validate(); err != nil {
		return &ConfigError{Field: "CPU", Err: err}
	}
	if err := cfg.Mem.Validate(); err != nil {
		return &ConfigError{Field: "Mem", Err: err}
	}
	opts := cfg.Scheme(core.None) // variants only set valid policies
	if err := opts.Buffers.Validate(); err != nil {
		return &ConfigError{Field: "Opts.Buffers", Err: err}
	}
	if err := opts.SFM.Validate(); err != nil {
		return &ConfigError{Field: "Opts.SFM", Err: err}
	}
	if cfg.MaxInsts == 0 {
		return &ConfigError{Field: "MaxInsts",
			Err: errors.New("instruction budget must be positive (the benchmarks loop forever)")}
	}
	if _, ok := traceNeed(cfg); !ok {
		return &ConfigError{Field: "MaxInsts",
			Err: fmt.Errorf("instruction budget %d is too large: the stream it records (budget plus in-flight margin) overflows uint64", cfg.MaxInsts)}
	}
	if cfg.TraceMode < TraceOff || cfg.TraceMode > TraceMemory {
		return &ConfigError{Field: "TraceMode",
			Err: fmt.Errorf("unknown trace mode %d (want off or memory)", int(cfg.TraceMode))}
	}
	if cfg.SampleMode != SampleOff {
		if cfg.SampleMode != SampleOn {
			return &ConfigError{Field: "SampleMode",
				Err: fmt.Errorf("unknown sample mode %d (want off or on)", int(cfg.SampleMode))}
		}
		period, length, warmup := cfg.sampleSpec()
		if warmup+length > period {
			return &ConfigError{Field: "SamplePeriod",
				Err: fmt.Errorf("warmup %d + measured len %d exceed the %d-instruction period", warmup, length, period)}
		}
	}
	return nil
}

// validateJob is Validate plus the variant check: every error RunChecked
// reports before any simulation work starts.
func validateJob(v core.Variant, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !v.Known() {
		return &ConfigError{Field: "Variant",
			Err: fmt.Errorf("unknown variant %d", int(v))}
	}
	return nil
}
