package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runPsbsim runs the command in process and returns its exit status,
// stdout and stderr.
func runPsbsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runPsbsim(t, args...)
	if code != 0 {
		t.Fatalf("psbsim %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// TestJSONMatchesRunChecked: -json prints exactly the canonical bytes
// of the cell's sim.RunChecked result.
func TestJSONMatchesRunChecked(t *testing.T) {
	got := mustRun(t, "-bench", "health", "-scheme", "ConfAlloc-Priority", "-insts", "20000", "-json")
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxInsts = 20_000
	r, err := sim.RunChecked(context.Background(), w, core.PSBConfPriority, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(results.Encode(r)); got != want {
		t.Errorf("psbsim -json printed\n%s\nwant\n%s", got, want)
	}
}

// TestProgressMatchesPlain: -progress reports between chunks of the
// same runs, so the whole cross product prints the same stdout with
// it as without it, serially and across workers.
func TestProgressMatchesPlain(t *testing.T) {
	base := []string{"-bench", "all", "-scheme", "all", "-insts", "20000"}
	plain := mustRun(t, base...)
	if n := strings.Count(plain, "\n"); n != len(workload.All())*len(core.Variants()) {
		t.Fatalf("plain run printed %d lines, want one per cell", n)
	}
	for _, extra := range [][]string{{"-progress"}, {"-progress", "-parallel", "2"}} {
		if got := mustRun(t, append(base, extra...)...); got != plain {
			t.Errorf("psbsim %s printed different cells than the plain run", strings.Join(extra, " "))
		}
	}
}

// TestSampleTraceOff: a sampled run records its stream in the trace
// cache whatever -trace says, so -trace off prints the bytes the
// default replayed run prints. The first run warms the process-wide
// checkpoint store, whose hit and fast-forward counters are part of
// the result, so the two runs compared both find it warm.
func TestSampleTraceOff(t *testing.T) {
	base := []string{"-bench", "health", "-scheme", "ConfAlloc-Priority", "-insts", "200000", "-sample", "-json"}
	mustRun(t, base...)
	replayed := mustRun(t, base...)
	if live := mustRun(t, append(base, "-trace", "off")...); live != replayed {
		t.Errorf("-sample -trace off printed\n%s\nwant\n%s", live, replayed)
	}
}

// TestFailedCell: a cell that times out prints a FAILED line and the
// run exits 1.
func TestFailedCell(t *testing.T) {
	code, stdout, stderr := runPsbsim(t, "-bench", "health", "-scheme", "Base", "-insts", "20000",
		"-job-timeout", "1ns", "-retries", "0")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if stdout != "" || !strings.Contains(stderr, "FAILED: context deadline exceeded") ||
		!strings.Contains(stderr, "1 of 1 cell(s) failed") {
		t.Errorf("stdout %q, stderr:\n%s", stdout, stderr)
	}
}

// TestFlagMisuse: unknown names, a bad cycle mode and a trace
// directory with tracing off exit 2 before simulating anything.
func TestFlagMisuse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "nosuch"}, `unknown benchmark "nosuch": valid benchmarks are health, `},
		{[]string{"-scheme", "nosuch"}, `unknown scheme "nosuch": valid schemes are Base, `},
		{[]string{"-cycle-mode", "warp"}, "warp"},
		{[]string{"-trace", "off", "-trace-dir", t.TempDir()}, "-trace-dir would be ignored"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	} {
		code, stdout, stderr := runPsbsim(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("psbsim %s: exit %d, stdout %q, stderr:\n%s", strings.Join(tc.args, " "), code, stdout, stderr)
		}
	}
}

// syncBuffer is a bytes.Buffer safe to write from the command while the
// test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestInterrupt: SIGINT stops the run, which says so once and exits
// 130 without a FAILED line for the cells it cut short. The signal is
// sent once a progress line shows the run (and its signal handler) is
// live.
func TestInterrupt(t *testing.T) {
	var stdout, stderr syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-bench", "all", "-scheme", "all", "-insts", "5000000", "-progress", "-parallel", "2"},
			&stdout, &stderr)
	}()
	deadline := time.Now().Add(time.Minute)
	for !strings.Contains(stderr.String(), "insts/s") {
		if time.Now().After(deadline) {
			t.Fatalf("no progress line within a minute; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 130 {
			t.Errorf("exit %d, want 130", c)
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not stop within a minute of SIGINT")
	}
	out := stderr.String()
	if strings.Count(out, "interrupted") != 1 || strings.Contains(out, "FAILED") {
		t.Errorf("stderr:\n%s", out)
	}
}
