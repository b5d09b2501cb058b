package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestConfig parses each command line through a binder and checks the
// configuration and runner options it resolves to, or its error: every
// -trace / -trace-dir pairing, the cycle modes, the sampling knobs with
// and without -sample, validation as flag misuse (of the binary's own
// settings in base too), psbserved's six flags with their 5-minute
// -job-timeout default, and psbtrace's three.
func TestConfig(t *testing.T) {
	def := sim.Default()
	def.TraceMode = sim.TraceMemory
	defOpts := runner.Options{Retries: 1}
	with := func(edit func(*sim.Config)) sim.Config {
		c := def
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		args []string
		bind string            // "serve": BindServe(fs, 5*time.Minute); "stream": BindStream; "": Bind
		base func(*sim.Config) // the binary's own settings, applied to sim.Default()
		err  string            // substring of the expected error; "" = accepted
		cfg  sim.Config
		opts runner.Options
	}{
		{args: nil, cfg: def, opts: defOpts},
		{args: []string{"-insts", "20000", "-seed", "7", "-parallel", "3", "-job-timeout", "2m", "-retries", "0"},
			cfg:  with(func(c *sim.Config) { c.MaxInsts, c.Seed, c.Workers = 20_000, 7, 3 }),
			opts: runner.Options{Timeout: 2 * time.Minute}},

		{args: []string{"-trace", "memory"}, cfg: def, opts: defOpts},
		{args: []string{"-trace-dir", "traces"},
			cfg: with(func(c *sim.Config) { c.TraceDir = "traces" }), opts: defOpts},
		{args: []string{"-trace", "memory", "-trace-dir", "traces"},
			cfg: with(func(c *sim.Config) { c.TraceDir = "traces" }), opts: defOpts},
		{args: []string{"-trace", "off"}, cfg: with(func(c *sim.Config) { c.TraceMode = sim.TraceOff }), opts: defOpts},
		{args: []string{"-trace", "off", "-trace-dir", "traces"}, err: "-trace-dir would be ignored"},
		{args: []string{"-trace", "disk"}, err: "unknown trace mode"},
		{args: []string{"-trace", "tape"}, err: "unknown trace mode"},
		{args: []string{"-trace", "tape", "-trace-dir", "traces"}, err: "unknown trace mode"},

		{args: []string{"-cycle-mode", "accurate"},
			cfg: with(func(c *sim.Config) { c.CPU.CycleMode = cpu.CycleModeAccurate }), opts: defOpts},
		{args: []string{"-cycle-mode", "event"},
			cfg: with(func(c *sim.Config) { c.CPU.CycleMode = cpu.CycleModeEvent }), opts: defOpts},
		{args: []string{"-cycle-mode", "warp"}, err: "unknown cycle mode"},

		// Exact cells ignore the sampling knobs: they are fingerprinted.
		{args: []string{"-sample-period", "40000", "-sample-len", "1000", "-sample-warmup", "2000"}, cfg: def, opts: defOpts},
		{args: []string{"-sample", "-sample-period", "40000", "-sample-len", "1000", "-sample-warmup", "2000"},
			cfg: with(func(c *sim.Config) {
				c.SampleMode, c.SamplePeriod, c.SampleLen, c.SampleWarmup = sim.SampleOn, 40_000, 1_000, 2_000
			}), opts: defOpts},
		{args: []string{"-sample", "-trace", "off"},
			cfg: with(func(c *sim.Config) { c.SampleMode, c.TraceMode = sim.SampleOn, sim.TraceOff }), opts: defOpts},
		{args: []string{"-sample", "-sample-period", "1000", "-sample-len", "2000"}, err: "invalid configuration"},
		{args: []string{"-insts", "0"}, err: "invalid configuration"},
		{args: []string{"-insts", "1000"}, base: func(c *sim.Config) { c.Mem.L1D.Ways = 8 },
			cfg: with(func(c *sim.Config) { c.MaxInsts, c.Mem.L1D.Ways = 1000, 8 }), opts: defOpts},
		{args: nil, base: func(c *sim.Config) { c.Mem.L1D.Ways = 3 }, err: "Mem"},

		{args: nil, bind: "serve", cfg: def, opts: runner.Options{Timeout: 5 * time.Minute, Retries: 1}},
		{args: []string{"-insts", "60000", "-trace-dir", "traces", "-job-timeout", "0", "-retries", "2"}, bind: "serve",
			cfg:  with(func(c *sim.Config) { c.MaxInsts, c.TraceDir = 60_000, "traces" }),
			opts: runner.Options{Retries: 2}},
		{args: []string{"-parallel", "2"}, bind: "serve", err: "not defined"},
		{args: []string{"-sample"}, bind: "serve", err: "not defined"},

		{args: nil, bind: "stream", cfg: def},
		{args: []string{"-insts", "20000", "-seed", "2", "-trace-dir", "traces"}, bind: "stream",
			cfg: with(func(c *sim.Config) { c.MaxInsts, c.Seed, c.TraceDir = 20_000, 2, "traces" })},
		// A zero budget runs to program completion, which no benchmark
		// reaches.
		{args: []string{"-insts", "0"}, bind: "stream", err: "invalid configuration"},
		{args: []string{"-trace", "off"}, bind: "stream", err: "not defined"},
		{args: []string{"-retries", "2"}, bind: "stream", err: "not defined"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var f *Flags
		switch tc.bind {
		case "serve":
			f = BindServe(fs, 5*time.Minute)
		case "stream":
			f = BindStream(fs)
		default:
			f = Bind(fs)
		}
		base := sim.Default()
		if tc.base != nil {
			tc.base(&base)
		}
		err := fs.Parse(tc.args)
		var cfg sim.Config
		var opts runner.Options
		if err == nil {
			cfg, opts, err = f.Config(base)
		}
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: err %v, want one containing %q", tc.args, err, tc.err)
		case err == nil && (cfg != tc.cfg || opts.Timeout != tc.opts.Timeout || opts.Retries != tc.opts.Retries ||
			opts.Store != nil || opts.FaultHook != nil):
			t.Errorf("%q:\n got %+v %+v\nwant %+v %+v", tc.args, cfg, opts, tc.cfg, tc.opts)
		}
	}
}
