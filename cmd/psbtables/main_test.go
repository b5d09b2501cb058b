package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runPsbtables runs the command in process and returns its exit
// status, stdout and stderr.
func runPsbtables(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) (string, string) {
	t.Helper()
	code, stdout, stderr := runPsbtables(t, args...)
	if code != 0 {
		t.Fatalf("psbtables %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// storeFiles maps each file under dir to its bytes.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCacheDirResume stores a subset of the suite, then runs the whole
// suite against the same directory: it must simulate only the missing
// cells and print exactly what an uninterrupted run prints.
func TestCacheDirResume(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "-fig", "5", "-fig", "4", "-insts", "20000", "-parallel", "2", "-cache-dir", dir)
	if n := len(storeFiles(t, dir)); n != 42 {
		t.Fatalf("subset run left %d entries, want 42 (36 matrix + 6 Figure 4 cells)", n)
	}

	resumed, stderr := mustRun(t, "-all", "-insts", "20000", "-parallel", "4", "-cache-dir", dir)
	if !strings.Contains(stderr, "satisfied 42 cell(s); 48 simulated") {
		t.Errorf("resumed run did not report 42 stored and 48 simulated cells:\n%s", stderr)
	}
	if n := len(storeFiles(t, dir)); n != 90 {
		t.Errorf("full run left %d entries, want the suite's 90 distinct cells", n)
	}
	plain, _ := mustRun(t, "-all", "-insts", "20000")
	if resumed != plain {
		t.Error("resumed output differs from an uninterrupted run's")
	}
}

// TestAblationsLeaveStoreUntouched: a run that uses no checked-runner
// cell must not change a store's entries (the JSONL journal this store
// replaced truncated its file on such a run).
func TestAblationsLeaveStoreUntouched(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "-fig", "5", "-insts", "2000", "-cache-dir", dir)
	before := storeFiles(t, dir)
	if len(before) != 36 {
		t.Fatalf("stored %d entries, want 36", len(before))
	}
	mustRun(t, "-ablations", "-insts", "2000", "-cache-dir", dir)
	after := storeFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("-ablations changed the entry count from %d to %d", len(before), len(after))
	}
	for path, b := range before {
		if after[path] != b {
			t.Errorf("-ablations changed %s", path)
		}
	}
}

// TestCycleModesStoreApart: an accurate run and an event run share a
// -cache-dir without serving each other's cells, whose bytes differ in
// the skip telemetry. The event run after the accurate one simulates
// every cell and prints what a plain run prints, and the store then
// holds each mode's 36 Figure 5 cells.
func TestCycleModesStoreApart(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "-fig", "5", "-insts", "2000", "-cycle-mode", "accurate", "-cache-dir", dir)
	event, stderr := mustRun(t, "-fig", "5", "-insts", "2000", "-cycle-mode", "event", "-cache-dir", dir)
	if strings.Contains(stderr, "satisfied") {
		t.Errorf("the event run was served cells the accurate run stored:\n%s", stderr)
	}
	if plain, _ := mustRun(t, "-fig", "5", "-insts", "2000"); event != plain {
		t.Error("the event run's output differs from a plain run's")
	}
	if n := len(storeFiles(t, dir)); n != 72 {
		t.Errorf("the store holds %d entries, want 36 per cycle mode", n)
	}
}

// TestFlagMisuse: bad requests exit 2, and a -cache-dir that cannot be
// a directory exits 1 before anything is simulated.
func TestFlagMisuse(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-fig", "3"},
		{"-table", "1"},
		{"-all", "-checkpoint", "x"},
		{"-all", "-resume"},
		{"-sample-accuracy", "-sample"},
		{"-sample-accuracy", "-cache-dir", dir},
		{},
	} {
		if code, _, stderr := runPsbtables(t, args...); code != 2 {
			t.Errorf("psbtables %s: exit %d, want 2; stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
	}

	file := filepath.Join(dir, "regular")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runPsbtables(t, "-all", "-insts", "2000", "-cache-dir", file)
	if code != 1 {
		t.Errorf("-cache-dir naming a regular file: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if stdout != "" || strings.Contains(stderr, "running") {
		t.Errorf("-cache-dir naming a regular file still simulated:\nstdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
}

// TestCacheDirWarmsServer: a psbserved node started on a directory that
// psbtables wrote serves every Figure 5 cell from disk, without a
// simulation, in the bytes psbsim -json prints for the cell.
func TestCacheDirWarmsServer(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "-fig", "5", "-insts", "20000", "-cache-dir", dir)

	base := sim.Default()
	base.MaxInsts = 20_000
	srv := serve.New(serve.Config{Base: base, Workers: 1, CacheDir: dir})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, w := range workload.All() {
		for _, v := range experiments.Schemes() {
			body := `{"bench":"` + w.Name + `","scheme":"` + v.String() + `"}`
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tier := resp.Header.Get("X-Psb-Cache"); resp.StatusCode != http.StatusOK || tier != "disk" {
				t.Fatalf("%s/%s: status %d, X-Psb-Cache %q, want 200 from disk", w.Name, v, resp.StatusCode, tier)
			}
			// psbsim -json: one checked run, canonically encoded.
			cells, err := runner.New(1).RunChecked(context.Background(),
				[]runner.Job{{Workload: w, Variant: v, Config: base}}, runner.DefaultOptions())
			if err != nil || !cells[0].OK() {
				t.Fatalf("%s/%s: direct run failed: %v %v", w.Name, v, err, cells[0].Err)
			}
			if !bytes.Equal(got, results.Encode(cells[0].Result)) {
				t.Errorf("%s/%s: served bytes differ from psbsim -json", w.Name, v)
			}
		}
	}
	if c := srv.Stats().Cells; c.Sim != 0 || c.DiskHits != 36 {
		t.Errorf("server simulated %d cells and served %d from disk, want 0 and 36", c.Sim, c.DiskHits)
	}
}
