package sim_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestReplayEquivalence is the tentpole determinism guarantee: for
// every workload under every paper scheme (plus the no-prefetch base),
// a run that replays the shared trace cache produces a Result equal
// field-for-field to a live functional-execution run. reflect.DeepEqual
// covers every counter, including the Fig4 histogram pointer targets.
func TestReplayEquivalence(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 25_000
	traced := cfg
	traced.TraceMode = sim.TraceMemory

	for _, w := range workload.All() {
		for _, v := range experiments.Schemes() {
			live := sim.Run(w, v, cfg)
			replay := sim.Run(w, v, traced)
			if !reflect.DeepEqual(live, replay) {
				t.Errorf("%s/%s: traced result differs from live result\nlive:   %+v\nreplay: %+v",
					w.Name, v, live, replay)
			}
		}
	}
}

// TestReplayEquivalenceFig4 covers the histogram-collecting path: the
// delta histogram is fed from the committed stream, so replay must
// reproduce it bit-for-bit too.
func TestReplayEquivalenceFig4(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 25_000
	cfg.CollectFig4 = true
	traced := cfg
	traced.TraceMode = sim.TraceMemory

	w := workload.All()[0]
	live := sim.Run(w, core.None, cfg)
	replay := sim.Run(w, core.None, traced)
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("%s: Fig4 traced result differs from live result", w.Name)
	}
}

// TestReplayEquivalenceDisk runs the persisting path: a run that
// records into a trace directory, and a second that replays the
// recording, must both match live execution exactly.
func TestReplayEquivalenceDisk(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 25_000
	// A fresh budget value keys this test's cache entries away from
	// the in-memory entries other tests already recorded, so the first
	// traced run actually records and persists.
	cfg.MaxInsts++

	disk := cfg
	disk.TraceMode = sim.TraceMemory
	disk.TraceDir = t.TempDir()

	w := workload.All()[0]
	v := core.PSBConfPriority
	live := sim.Run(w, v, cfg)
	first := sim.Run(w, v, disk)  // records + persists
	second := sim.Run(w, v, disk) // replays the cache's recording
	if !reflect.DeepEqual(live, first) || !reflect.DeepEqual(live, second) {
		t.Fatal("disk-traced results differ from live execution")
	}
}

// TestTraceDirPersists: a trace directory alone makes a run's
// recording persist, whatever mode records it, so a Go caller that
// names a directory finds the .psbtrace file there.
func TestTraceDirPersists(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 25_002 // a key no other test records
	cfg.TraceMode = sim.TraceMemory
	cfg.TraceDir = t.TempDir()

	w := workload.All()[0]
	sim.Run(w, core.None, cfg)
	files, err := filepath.Glob(filepath.Join(cfg.TraceDir, "*.psbtrace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("trace directory holds %v (err %v), want one .psbtrace file", files, err)
	}
}

// TestRunCheckedTraced covers the errors-as-values path with tracing
// on, and the validation rules for the trace fields.
func TestRunCheckedTraced(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 10_000
	cfg.TraceMode = sim.TraceMemory + 1 // unknown, even with a directory
	cfg.TraceDir = t.TempDir()
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown trace mode must fail validation")
	}
	cfg.TraceMode = sim.TraceMemory
	if err := cfg.Validate(); err != nil {
		t.Fatalf("TraceMemory config rejected: %v", err)
	}
}

// TestRunMatrixTracedEquivalence runs the full experiment matrix twice
// — live and traced, parallel — and requires identical matrices. This
// is the whole-pipeline form of the per-cell equivalence test,
// covering the warm-up coordination in internal/experiments.
func TestRunMatrixTracedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	cfg := sim.Default()
	cfg.MaxInsts = 10_000
	cfg.Workers = -1

	live := experiments.RunMatrix(cfg)
	traced := cfg
	traced.TraceMode = sim.TraceMemory
	replay := experiments.RunMatrix(traced)

	if !reflect.DeepEqual(live.Results, replay.Results) {
		t.Fatal("traced matrix differs from live matrix")
	}
	if live.Failed() != 0 || replay.Failed() != 0 {
		t.Fatalf("matrix cells failed: live=%d traced=%d", live.Failed(), replay.Failed())
	}
}
