package results_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// goldenFP is the fingerprint of health/ConfAlloc-Priority at 20K
// instructions and otherwise default settings. testdata holds the
// entry psbserved -insts 20000 -cache-dir wrote for it before the
// store moved into this package (sha256 3ff7ce73…c8698, 1,220 bytes).
const goldenFP = "378e60371eebb5b1"

// TestGoldenEntry pins the stored form across both binaries: the
// committed entry loads and re-encodes to the same bytes, and the
// checked runner path psbtables -cache-dir takes writes exactly those
// bytes for the same cell.
func TestGoldenEntry(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", goldenFP+".psbc"))
	if err != nil {
		t.Fatal(err)
	}
	// Load from a copy: a failed load would quarantine the file.
	loaded := results.New(t.TempDir())
	if err := os.WriteFile(loaded.Path(goldenFP), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Load(goldenFP)
	if err != nil {
		t.Fatalf("load committed entry: %v", err)
	}
	if !bytes.Equal(results.EncodeEntry(res), golden) {
		t.Error("committed entry does not re-encode to its own bytes")
	}

	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxInsts = 20_000
	// The entry was written in the default event-driven mode; its skip
	// telemetry is in the bytes, though not in the fingerprint.
	cfg.CPU.CycleMode = cpu.CycleModeEvent
	job := runner.Job{Workload: w, Variant: core.PSBConfPriority, Config: cfg}
	if fp := job.Fingerprint(); fp != goldenFP {
		t.Fatalf("job fingerprint = %s, want %s", fp, goldenFP)
	}
	written := results.New(t.TempDir())
	cells, err := runner.New(1).RunChecked(context.Background(), []runner.Job{job}, runner.Options{Store: written})
	if err != nil || !cells[0].OK() || cells[0].Cached {
		t.Fatalf("run: err=%v cell=%+v, want one fresh simulation", err, cells[0].Err)
	}
	got, err := os.ReadFile(written.Path(goldenFP))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("runner wrote %d bytes that differ from the committed %d-byte entry", len(got), len(golden))
	}
}
