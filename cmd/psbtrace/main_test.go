package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runPsbtrace runs the command in process and returns its exit status
// and output.
func runPsbtrace(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runPsbtrace(t, args...)
	if code != 0 {
		t.Fatalf("psbtrace %s: exit %d; stderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// TestTraceDirMatchesLive: the report is the same whether the stream
// is recorded live, recorded into a trace directory, or loaded from the
// file that recording left, and the loading run leaves the file in
// place rather than rewriting it.
func TestTraceDirMatchesLive(t *testing.T) {
	args := []string{"-bench", "all", "-insts", "20000", "-seed", "2"}
	live := mustRun(t, args...)
	if strings.Count(live, "===") != 2*6 {
		t.Fatalf("want a report per workload, got:\n%s", live)
	}

	dir := t.TempDir()
	withDir := append(args, "-trace-dir", dir)
	if got := mustRun(t, withDir...); got != live {
		t.Fatalf("recording into -trace-dir changed the report:\n%s\nwant:\n%s", got, live)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.psbtrace"))
	if err != nil || len(files) != 6 {
		t.Fatalf("want 6 recordings in the trace directory, got %v (err %v)", files, err)
	}
	before := make(map[string]os.FileInfo)
	for _, f := range files {
		if before[f], err = os.Stat(f); err != nil {
			t.Fatal(err)
		}
	}

	if got := mustRun(t, withDir...); got != live {
		t.Fatalf("loading from -trace-dir changed the report:\n%s\nwant:\n%s", got, live)
	}
	for _, f := range files {
		after, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before[f], after) {
			t.Errorf("%s was rewritten instead of loaded", filepath.Base(f))
		}
	}
}

// TestV1FileReplaced: a version-1 recording left in the trace
// directory is rejected, re-recorded and replaced by a version-2 file,
// and the report equals a live run's.
func TestV1FileReplaced(t *testing.T) {
	const name = "health-seed1-n2000.psbtrace"
	v1, err := os.ReadFile(filepath.Join("..", "..", "internal", "trace", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v1, []byte("PSBTRC01")) {
		t.Fatalf("%s is not a version-1 recording", name)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	args := []string{"-bench", "health", "-insts", "2000", "-seed", "1"}
	live := mustRun(t, args...)
	if got := mustRun(t, append(args, "-trace-dir", dir)...); got != live {
		t.Fatalf("report over a v1 file differs from a live run's:\n%s\nwant:\n%s", got, live)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("PSBTRC02")) {
		t.Fatalf("the v1 file was not replaced by a version-2 recording (starts %q)", got[:8])
	}
}

// TestFlagMisuse: an unknown benchmark or flag, a zero budget (which
// would trace to program completion, and no benchmark completes) and a
// flag psbtrace does not take exit 2 and print nothing on stdout.
func TestFlagMisuse(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "nosuch", "-insts", "1000"},
		{"-no-such-flag"},
		{"-bench", "health", "-insts", "0"},
		{"-insts", "0", "-trace-dir", "traces"},
		{"-trace", "off"},
	} {
		code, stdout, stderr := runPsbtrace(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("psbtrace %s: exit %d with stdout %q, want 2 and none; stderr:\n%s",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}
}

// TestHelp: -h exits 0 and lists psbtrace's flags with their defaults.
func TestHelp(t *testing.T) {
	code, stdout, stderr := runPsbtrace(t, "-h")
	if code != 0 || stdout != "" {
		t.Fatalf("psbtrace -h: exit %d with stdout %q, want 0 and none", code, stdout)
	}
	for _, want := range []string{
		"-bench string", `(default "health")`,
		"-insts uint", "(default 500000)",
		"-seed int", "(default 1)",
		"-top int", "(default 8)",
		"-trace-dir string",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("psbtrace -h lacks %q:\n%s", want, stderr)
		}
	}
}
