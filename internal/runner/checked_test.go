package runner

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// smallCfg returns a fast, valid configuration.
func smallCfg() sim.Config {
	cfg := sim.Default()
	cfg.MaxInsts = 5_000
	return cfg
}

// boomWorkload builds a workload whose construction panics — the
// fault-injection stand-in for a simulator bug in one cell.
func boomWorkload() workload.Workload {
	return workload.Workload{
		Name:        "boom",
		Description: "fault injection: panics during build",
		Build:       func(seed int64) *vm.Machine { panic("injected fault") },
	}
}

// TestRunCheckedIsolatesFailures mixes healthy cells with a panicking
// cell and a deadlocking cell: the bad cells fail alone, with typed
// errors, while every healthy cell completes with the same result a
// plain Run would produce.
func TestRunCheckedIsolatesFailures(t *testing.T) {
	cfg := smallCfg()
	deadCfg := cfg
	deadCfg.CPU.WatchdogCycles = 3
	good := workload.All()[:2]
	jobs := []Job{
		{Workload: good[0], Variant: core.None, Config: cfg},
		{Workload: boomWorkload(), Variant: core.None, Config: cfg},
		{Workload: good[1], Variant: core.PSBConfPriority, Config: cfg},
		{Workload: good[0], Variant: core.None, Config: deadCfg},
	}
	cells, err := New(4).RunChecked(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}

	for _, i := range []int{0, 2} {
		if !cells[i].OK() {
			t.Fatalf("healthy cell %d failed: %v", i, cells[i].Err)
		}
		want := sim.Run(jobs[i].Workload, jobs[i].Variant, jobs[i].Config)
		if !reflect.DeepEqual(cells[i].Result, want) {
			t.Errorf("cell %d: checked result differs from plain Run", i)
		}
	}

	var pe *PanicError
	if cells[1].Err == nil || !errors.As(cells[1].Err, &pe) {
		t.Fatalf("panicking cell err = %v, want *PanicError", cells[1].Err)
	}
	if pe.Value != "injected fault" {
		t.Errorf("panic value = %v, want injected fault", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "checked_test.go") {
		t.Errorf("panic stack does not reach the injection site:\n%s", pe.Stack)
	}
	if cells[1].Err.Workload != "boom" {
		t.Errorf("JobError.Workload = %q, want boom", cells[1].Err.Workload)
	}

	var de *cpu.DeadlockError
	if cells[3].Err == nil || !errors.As(cells[3].Err, &de) {
		t.Fatalf("deadlocking cell err = %v, want *cpu.DeadlockError", cells[3].Err)
	}
	// Deterministic failures must not burn retries.
	if cells[3].Attempts != 1 {
		t.Errorf("deadlock cell attempts = %d, want 1 (no retry)", cells[3].Attempts)
	}

	if got := len(Failures(cells)); got != 2 {
		t.Errorf("Failures() = %d errors, want 2", got)
	}
}

// TestRunCheckedRetriesPanics: a transient failure is retried
// Options.Retries times before the cell is declared failed.
func TestRunCheckedRetriesPanics(t *testing.T) {
	jobs := []Job{{Workload: boomWorkload(), Variant: core.None, Config: smallCfg()}}
	cells, err := New(1).RunChecked(context.Background(), jobs, Options{Retries: 2})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if cells[0].OK() {
		t.Fatal("panicking cell reported OK")
	}
	if cells[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", cells[0].Attempts)
	}
}

// TestRunCheckedTimeout: a job that cannot finish inside the
// wall-clock budget trips the watchdog and fails with
// context.DeadlineExceeded after exhausting its retries.
func TestRunCheckedTimeout(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 1 << 60 // never finishes on its own
	jobs := []Job{{Workload: workload.All()[0], Variant: core.None, Config: cfg}}
	opts := Options{Timeout: 30 * time.Millisecond, Retries: 1}
	start := time.Now()
	cells, err := New(1).RunChecked(context.Background(), jobs, opts)
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if cells[0].OK() {
		t.Fatal("unbounded job reported OK under a 30ms timeout")
	}
	if !errors.Is(cells[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", cells[0].Err)
	}
	if cells[0].Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (timeout is transient)", cells[0].Attempts)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("watchdog took %v to fire twice; cancellation is not cooperative enough", elapsed)
	}
}

// TestRunCheckedCancelMarksPending: cancelling the context fails the
// cells that never started with the context's error.
func TestRunCheckedCancelMarksPending(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallCfg()
	jobs := []Job{
		{Workload: workload.All()[0], Variant: core.None, Config: cfg},
		{Workload: workload.All()[1], Variant: core.None, Config: cfg},
	}
	cells, err := New(2).RunChecked(ctx, jobs, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, c := range cells {
		if c.Err == nil {
			t.Fatalf("cell %d not marked failed after cancel", i)
		}
		if !errors.Is(c.Err, context.Canceled) {
			t.Errorf("cell %d err = %v, want context.Canceled", i, c.Err)
		}
	}
}

// TestFingerprint: equal jobs agree, different jobs differ, and the
// worker count is irrelevant to identity.
func TestFingerprint(t *testing.T) {
	cfg := smallCfg()
	j := Job{Workload: workload.All()[0], Variant: core.PCStride, Config: cfg}
	if j.Fingerprint() != j.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	par := j
	par.Config.Workers = 8
	if j.Fingerprint() != par.Fingerprint() {
		t.Error("Workers changed the fingerprint; resume across -parallel values would re-run everything")
	}
	other := j
	other.Variant = core.Sequential
	if j.Fingerprint() == other.Fingerprint() {
		t.Error("different variants share a fingerprint")
	}
	tweaked := j
	tweaked.Config.MaxInsts++
	if j.Fingerprint() == tweaked.Fingerprint() {
		t.Error("different budgets share a fingerprint")
	}
	mode := j
	mode.Config.CPU.CycleMode = cpu.CycleModeAccurate
	if j.Fingerprint() != mode.Fingerprint() {
		t.Error("CycleMode changed the fingerprint; resume across -cycle-mode values would re-run everything")
	}
	sampled := j
	sampled.Config.SampleMode = sim.SampleOn
	if j.Fingerprint() == sampled.Fingerprint() {
		t.Error("sampling shares the exact run's fingerprint; resume would serve sampled cells from exact results")
	}
	period := sampled
	period.Config.SamplePeriod = 50_000
	if sampled.Fingerprint() == period.Fingerprint() {
		t.Error("sample period does not participate in the fingerprint")
	}
	warm := sampled
	warm.Config.SampleWarmup = 5_000
	if sampled.Fingerprint() == warm.Fingerprint() {
		t.Error("sample warmup does not participate in the fingerprint")
	}
}

func matrixJobs(cfg sim.Config) []Job {
	var jobs []Job
	for _, w := range workload.All()[:3] {
		for _, v := range []core.Variant{core.None, core.PCStride, core.PSBConfPriority} {
			jobs = append(jobs, Job{Workload: w, Variant: v, Config: cfg})
		}
	}
	return jobs
}

// TestStoreResumeReproduces runs a matrix to completion with a result
// store, then re-runs it against the same directory: every cell must be
// served from the store and the results must round-trip exactly.
func TestStoreResumeReproduces(t *testing.T) {
	dir := t.TempDir()
	jobs := matrixJobs(smallCfg())

	first, err := New(4).RunChecked(context.Background(), jobs, Options{Store: results.New(dir)})
	if err != nil {
		t.Fatal(err)
	}

	if stored, _ := filepath.Glob(filepath.Join(dir, "*.psbc")); len(stored) != len(jobs) {
		t.Fatalf("resumed store has %d cells, want %d", len(stored), len(jobs))
	}
	second, err := New(2).RunChecked(context.Background(), jobs, Options{Store: results.New(dir)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("cell %d was re-simulated on resume", i)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("cell %d: resumed result differs from original", i)
		}
	}
}

// TestStorePartialResume simulates a killed run: only a prefix of the
// matrix is stored, then a resumed full run must produce results
// identical to an uninterrupted run — cached cells from the store, the
// rest simulated fresh.
func TestStorePartialResume(t *testing.T) {
	dir := t.TempDir()
	jobs := matrixJobs(smallCfg())
	uninterrupted, err := New(4).RunChecked(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := New(2).RunChecked(context.Background(), jobs[:4], Options{Store: results.New(dir)}); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(4).RunChecked(context.Background(), jobs, Options{Store: results.New(dir)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		wantCached := i < 4
		if resumed[i].Cached != wantCached {
			t.Errorf("cell %d: cached = %v, want %v", i, resumed[i].Cached, wantCached)
		}
		if !reflect.DeepEqual(resumed[i].Result, uninterrupted[i].Result) {
			t.Errorf("cell %d: resumed result differs from uninterrupted run", i)
		}
	}
}

// TestStoreCorruptEntriesResimulated damages two stored cells, one
// truncated as a torn write would leave it and one with a flipped bit.
// Each must be treated as a miss, re-simulated and overwritten with
// its original bytes; the rest of the batch must come back cached.
func TestStoreCorruptEntriesResimulated(t *testing.T) {
	dir := t.TempDir()
	jobs := matrixJobs(smallCfg())[:4]
	first, err := New(2).RunChecked(context.Background(), jobs, Options{Store: results.New(dir)})
	if err != nil {
		t.Fatal(err)
	}

	st := results.New(dir)
	damage := map[int]func([]byte) []byte{
		0: func(b []byte) []byte { return b[:len(b)/2] },
		1: func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
	}
	want := make(map[int][]byte)
	for i, corrupt := range damage {
		path := st.Path(jobs[i].Fingerprint())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]byte(nil), b...)
		if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second, err := New(2).RunChecked(context.Background(), jobs, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		_, damaged := damage[i]
		if !second[i].OK() || second[i].Cached == damaged {
			t.Errorf("cell %d: ok=%v cached=%v, want cached=%v", i, second[i].OK(), second[i].Cached, !damaged)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("cell %d: result differs from the original run", i)
		}
	}
	for i := range damage {
		got, err := os.ReadFile(st.Path(jobs[i].Fingerprint()))
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Errorf("cell %d: entry not overwritten with its original bytes (err %v)", i, err)
		}
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, results.QuarantineDir, "*.psbc"))
	if len(quarantined) != len(damage) {
		t.Errorf("quarantined %d entries, want %d", len(quarantined), len(damage))
	}
}
