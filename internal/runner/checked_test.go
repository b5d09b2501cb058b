package runner

import (
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

// TestCheckpointResumeReproduces runs a matrix to completion with a
// checkpoint, then re-runs with -resume semantics: every cell must be
// served from the journal and the results must round-trip exactly.
func TestCheckpointResumeReproduces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	jobs := matrixJobs(smallCfg())

	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := New(4).RunChecked(context.Background(), jobs, Options{Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()

	cp2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != len(jobs) {
		t.Fatalf("resumed checkpoint has %d cells, want %d", cp2.Len(), len(jobs))
	}
	second, err := New(2).RunChecked(context.Background(), jobs, Options{Checkpoint: cp2})
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

// TestCheckpointPartialResume simulates a killed run: only a prefix of
// the matrix is journaled, then a resumed full run must produce
// results identical to an uninterrupted run — cached cells from the
// journal, the rest simulated fresh.
func TestCheckpointPartialResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	jobs := matrixJobs(smallCfg())
	uninterrupted, err := New(4).RunChecked(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(2).RunChecked(context.Background(), jobs[:4], Options{Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	cp2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	resumed, err := New(4).RunChecked(context.Background(), jobs, Options{Checkpoint: cp2})
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

// TestCheckpointTornTail: a journal whose writer died mid-line (and a
// corrupt line after it) must load every intact record, drop the rest
// and stay usable for appends.
func TestCheckpointTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	jobs := matrixJobs(smallCfg())[:2]
	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(1).RunChecked(context.Background(), jobs, Options{Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	// Append a torn (newline-less) half record, as a kill mid-write
	// would leave behind.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"deadbeef","result":{"Work`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if cp2.Len() != len(jobs) {
		t.Fatalf("loaded %d cells, want %d (torn tail dropped)", cp2.Len(), len(jobs))
	}
	// The journal must accept new records cleanly after truncation.
	extra := Job{Workload: workload.All()[2], Variant: core.None, Config: smallCfg()}
	if _, err := New(1).RunChecked(context.Background(), []Job{extra}, Options{Checkpoint: cp2}); err != nil {
		t.Fatal(err)
	}
	cp2.Close()

	cp3, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	if cp3.Len() != len(jobs)+1 {
		t.Fatalf("after append-over-torn-tail: %d cells, want %d", cp3.Len(), len(jobs)+1)
	}
}
