package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// TestValidateAcceptsDefault: the shipped baseline must validate.
func TestValidateAcceptsDefault(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() rejected: %v", err)
	}
}

// TestValidateRejectsBrokenFields breaks one field at a time and
// checks the error is a *ConfigError naming the right component.
func TestValidateRejectsBrokenFields(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"zero ROB", func(c *Config) { c.CPU.ROBSize = 0 }, "CPU"},
		{"negative fetch width", func(c *Config) { c.CPU.FetchWidth = -1 }, "CPU"},
		{"huge gshare", func(c *Config) { c.CPU.Gshare.TableBits = 40 }, "CPU"},
		{"non-pow2 L1D sets", func(c *Config) { c.Mem.L1D.SizeBytes = 3000 }, "Mem"},
		{"zero L2 pipe", func(c *Config) { c.Mem.L2PipeDepth = 0 }, "Mem"},
		{"non-pow2 pages", func(c *Config) { c.Mem.PageBytes = 1000 }, "Mem"},
		{"zero buffers", func(c *Config) { c.Opts.Buffers.NumBuffers = 0 }, "Opts.Buffers"},
		{"negative threshold", func(c *Config) { c.Opts.Buffers.ConfThreshold = -1 }, "Opts.Buffers"},
		{"stride not divisible", func(c *Config) { c.Opts.SFM.StrideEntries = 10; c.Opts.SFM.StrideWays = 4 }, "Opts.SFM"},
		{"non-pow2 markov", func(c *Config) { c.Opts.SFM.MarkovEntries = 1000 }, "Opts.SFM"},
		{"markov order", func(c *Config) { c.Opts.SFM.MarkovOrder = 9 }, "Opts.SFM"},
		{"zero budget", func(c *Config) { c.MaxInsts = 0 }, "MaxInsts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken config")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

// TestValidateRejectsOverflowingBudget: the recording a run needs is
// MaxInsts plus the in-flight margin (and, sampled, up to one more
// period). A budget whose recording length overflows uint64 used to
// wrap to a tiny need, so the run silently stopped after a few dozen
// instructions; Validate now rejects it, and RunChecked with it. The
// largest budget that fits still validates.
func TestValidateRejectsOverflowingBudget(t *testing.T) {
	exact := Default()
	sampled := Default()
	sampled.TraceMode = TraceMemory
	sampled.SampleMode = SampleOn
	tail := uint64(exact.CPU.ROBSize+exact.CPU.FetchQueueSize+exact.CPU.CommitWidth) + 8
	period, _, _ := sampled.sampleSpec()
	// The sampled need is last + period + tail, where last is the start
	// of the period stratum holding instruction MaxInsts-1.
	room := math.MaxUint64 - period - tail
	largestSampled := room/period*period + period

	cases := []struct {
		name  string
		cfg   Config
		insts uint64
		ok    bool
	}{
		{"exact max", exact, math.MaxUint64, false},
		{"exact max-100", exact, math.MaxUint64 - 100, false},
		{"exact largest", exact, math.MaxUint64 - tail, true},
		{"exact largest+1", exact, math.MaxUint64 - tail + 1, false},
		{"sampled max", sampled, math.MaxUint64, false},
		{"sampled max-100", sampled, math.MaxUint64 - 100, false},
		{"sampled largest", sampled, largestSampled, true},
		{"sampled largest+1", sampled, largestSampled + 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxInsts = tc.insts
			err := cfg.Validate()
			if tc.ok {
				if err != nil {
					t.Fatalf("Validate rejected budget %d: %v", tc.insts, err)
				}
				if need := TraceNeed(cfg); need < cfg.MaxInsts+tail {
					t.Fatalf("TraceNeed(%d) = %d wrapped", tc.insts, need)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != "MaxInsts" {
				t.Fatalf("Validate(budget %d) = %v, want a *ConfigError at MaxInsts", tc.insts, err)
			}
			r, err := RunChecked(context.Background(), workload.All()[0], core.PSBConfPriority, cfg)
			if !errors.As(err, &ce) || r.CPU.Committed != 0 {
				t.Fatalf("RunChecked(budget %d) = %d insts, %v; want a *ConfigError before any work",
					tc.insts, r.CPU.Committed, err)
			}
		})
	}
}

// TestValidateIgnoresOverriddenBlockSize: Run syncs the stream-buffer
// block size and SFM block shift to the L1D line, so a config with
// stale values in those fields must still validate.
func TestValidateIgnoresOverriddenBlockSize(t *testing.T) {
	cfg := Default()
	cfg.Opts.Buffers.BlockBytes = -7
	cfg.Opts.SFM.BlockShift = 99
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected fields Run overrides: %v", err)
	}
}

// TestRunCheckedMatchesRun: the checked path must be bit-identical to
// the panicking path on a healthy run.
func TestRunCheckedMatchesRun(t *testing.T) {
	cfg := Default()
	cfg.MaxInsts = 20_000
	w := workload.All()[0]
	want := Run(w, core.PSBConfPriority, cfg)
	got, err := RunChecked(context.Background(), w, core.PSBConfPriority, cfg)
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunChecked result differs from Run")
	}
}

// TestRunCheckedConfigError: an invalid config comes back as a
// *ConfigError value, never a panic, and no simulation runs.
func TestRunCheckedConfigError(t *testing.T) {
	cfg := Default()
	cfg.Opts.SFM.MarkovEntries = 3 // not a power of two
	_, err := RunChecked(context.Background(), workload.All()[0], core.PSBConfPriority, cfg)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *ConfigError", err, err)
	}
}

// TestRunCheckedUnknownVariant rejects variants outside the enum.
func TestRunCheckedUnknownVariant(t *testing.T) {
	_, err := RunChecked(context.Background(), workload.All()[0], core.Variant(999), Default())
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *ConfigError", err, err)
	}
	if ce.Field != "Variant" {
		t.Errorf("Field = %q, want Variant", ce.Field)
	}
}

// TestRunCheckedDeadlock: an absurdly low watchdog threshold turns
// every run into a detected deadlock, reported as a value.
func TestRunCheckedDeadlock(t *testing.T) {
	cfg := Default()
	cfg.MaxInsts = 1_000_000
	cfg.CPU.WatchdogCycles = 3
	_, err := RunChecked(context.Background(), workload.All()[0], core.None, cfg)
	var de *cpu.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *cpu.DeadlockError", err, err)
	}
	if de.IdleCycles < 3 {
		t.Errorf("DeadlockError.IdleCycles = %d, want >= 3", de.IdleCycles)
	}
}

// TestRunCheckedCanceled: a pre-canceled context aborts promptly with
// the context's error and partial stats.
func TestRunCheckedCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Default()
	cfg.MaxInsts = 50_000_000 // would take far too long if not aborted
	res, err := RunChecked(ctx, workload.All()[0], core.None, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.CPU.Committed >= cfg.MaxInsts {
		t.Error("run completed despite canceled context")
	}
}
