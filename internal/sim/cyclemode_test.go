package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// randomConfig derives a valid, deterministic configuration from seed.
// It perturbs the knobs most likely to shift event timing — structure
// sizes, latencies, bus widths, MSHR counts, buffer geometry — while
// keeping every value inside Validate()'s bounds.
func randomConfig(seed int64) Config {
	r := rand.New(rand.NewSource(seed))
	pick := func(vs ...int) int { return vs[r.Intn(len(vs))] }

	cfg := Default()
	cfg.MaxInsts = uint64(20_000 + r.Intn(3)*10_000)
	cfg.Seed = int64(1 + r.Intn(3))

	cfg.CPU.ROBSize = pick(32, 64, 128)
	cfg.CPU.LSQSize = cfg.CPU.ROBSize / 2
	cfg.CPU.IssueWidth = pick(4, 8)
	cfg.CPU.CommitWidth = cfg.CPU.IssueWidth
	cfg.CPU.FetchQueueSize = pick(16, 32)
	cfg.CPU.MispredictPenalty = uint64(pick(6, 8, 10))
	cfg.CPU.L1HitLatency = uint64(pick(1, 2))
	if r.Intn(2) == 0 {
		cfg.CPU.Disambiguation = cpu.DisNone
	}

	cfg.Mem.L1D.SizeBytes = pick(8<<10, 32<<10)
	cfg.Mem.L2.SizeBytes = pick(256<<10, 1<<20)
	cfg.Mem.L2Latency = uint64(pick(8, 12, 20))
	cfg.Mem.MemLatency = uint64(pick(80, 120, 200))
	cfg.Mem.L1L2BusBytes = pick(4, 8)
	cfg.Mem.DMSHRs = pick(4, 8, 16)
	cfg.Mem.TLBEntries = pick(16, 64)

	cfg.Opts.Buffers.NumBuffers = pick(2, 4, 8)
	cfg.Opts.Buffers.EntriesPerBuffer = pick(2, 4)
	cfg.Opts.Buffers.CacheTLBInBuffer = r.Intn(2) == 0
	return cfg
}

// stripSkipTelemetry zeroes the counters that describe how the clock
// advanced rather than what the machine did; they are the only fields
// allowed to differ between modes.
func stripSkipTelemetry(r Result) Result {
	r.CPU.SkippedCycles = 0
	r.CPU.Jumps = 0
	return r
}

// TestCycleModeDifferential is the bit-identity property: for a table
// of fuzz-style seeds crossed with every workload and a rotating
// prefetcher variant, the accurate cycle-by-cycle loop and the
// event-driven skipping loop must produce byte-identical Results
// (after stripping the skip telemetry, which only exists in event
// mode).
func TestCycleModeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	variants := core.Variants()
	ws := workload.All()
	if len(ws) == 0 {
		t.Fatal("no workloads registered")
	}
	run := 0
	for _, seed := range seeds {
		cfg := randomConfig(seed)
		for _, w := range ws {
			v := variants[run%len(variants)]
			run++

			acc := cfg
			acc.CPU.CycleMode = cpu.CycleModeAccurate
			ev := cfg
			ev.CPU.CycleMode = cpu.CycleModeEvent

			ra, err := RunChecked(context.Background(), w, v, acc)
			if err != nil {
				t.Fatalf("seed %d %s/%s accurate: %v", seed, w.Name, v, err)
			}
			re, err := RunChecked(context.Background(), w, v, ev)
			if err != nil {
				t.Fatalf("seed %d %s/%s event: %v", seed, w.Name, v, err)
			}
			if ra.CPU.SkippedCycles != 0 || ra.CPU.Jumps != 0 {
				t.Errorf("seed %d %s/%s: accurate mode reported skips", seed, w.Name, v)
			}
			got, want := stripSkipTelemetry(re), stripSkipTelemetry(ra)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s/%s: event result diverges from accurate\nevent:    %+v\naccurate: %+v",
					seed, w.Name, v, got, want)
			}
		}
	}
}

// TestEventModeActuallySkips guards against the fast path silently
// degrading into the accurate loop: a miss-heavy pointer workload with
// no prefetching spends most of its time stalled on memory, so the
// event loop must take many jumps.
func TestEventModeActuallySkips(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 60_000
	cfg.CPU.CycleMode = cpu.CycleModeEvent
	res := Run(get(t, "health"), core.None, cfg)
	if res.CPU.Jumps == 0 || res.CPU.SkippedCycles == 0 {
		t.Fatalf("event mode took no jumps (jumps=%d skipped=%d cycles=%d)",
			res.CPU.Jumps, res.CPU.SkippedCycles, res.CPU.Cycles)
	}
	if res.CPU.SkippedCycles >= res.CPU.Cycles {
		t.Fatalf("skipped %d of %d cycles: telemetry inconsistent",
			res.CPU.SkippedCycles, res.CPU.Cycles)
	}
	t.Logf("skipped %d of %d cycles in %d jumps (%.1f%%, avg jump %.1f)",
		res.CPU.SkippedCycles, res.CPU.Cycles, res.CPU.Jumps,
		100*res.CPU.SkipFraction(), res.CPU.AvgJumpLen())
}

// TestCycleModeParse covers the flag-facing parser.
func TestCycleModeParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want cpu.CycleMode
		err  bool
	}{
		{"", cpu.CycleModeDefault, false},
		{"default", cpu.CycleModeDefault, false},
		{"event", cpu.CycleModeEvent, false},
		{"accurate", cpu.CycleModeAccurate, false},
		{"Accurate", cpu.CycleModeAccurate, false},
		{"fast", 0, true},
	} {
		got, err := cpu.ParseCycleMode(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseCycleMode(%q) err = %v, want err=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseCycleMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if cpu.CycleMode(99).Validate() == nil {
		t.Error("Validate accepted an out-of-range mode")
	}
}
