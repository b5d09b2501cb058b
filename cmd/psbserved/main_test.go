package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"regexp"
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

// syncBuffer is a bytes.Buffer safe to write from the server while the
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

// TestFlagMisuse: flags that cannot make a server exit 2 before it
// listens.
func TestFlagMisuse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "disk"}, "unknown trace mode"},
		{[]string{"-trace", "off", "-trace-dir", t.TempDir()}, "-trace-dir would be ignored"},
		{[]string{"-faults", "sim-panic=2"}, "sim-panic"},
		{[]string{"-faults", "nonsense"}, "nonsense"},
		{[]string{"-tenant-weight", "gold"}, "want key=weight"},
		{[]string{"-tenant-weight", "gold=-1"}, "not a positive number"},
		{[]string{"-peers", "127.0.0.1:1,127.0.0.1:2"}, "advertise"},
	} {
		var stderr bytes.Buffer
		code := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), io.Discard, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "listening") {
			t.Errorf("psbserved %s: exit %d, stderr:\n%s", strings.Join(tc.args, " "), code, stderr.String())
		}
	}
}

// TestServeAndDrain runs the daemon on a loopback port the kernel
// picks: it prints the address it bound, answers /v1/sim with the
// canonical bytes psbsim -json prints for the cell (results.Encode of
// the cell's sim.RunChecked result), and on SIGINT drains and exits 0.
func TestServeAndDrain(t *testing.T) {
	var stderr syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-insts", "20000", "-workers", "1"}, io.Discard, &stderr)
	}()
	listening := regexp.MustCompile(`listening on (\S+) `)
	var addr string
	for deadline := time.Now().Add(time.Minute); addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := listening.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no listening line within a minute; stderr:\n%s", stderr.String())
		}
	}

	resp, err := http.Post("http://"+addr+"/v1/sim", "application/json",
		strings.NewReader(`{"bench":"health","scheme":"ConfAlloc-Priority"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
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
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, results.Encode(r)) {
		t.Errorf("/v1/sim answered %d:\n%s\nwant the cell's canonical bytes:\n%s", resp.StatusCode, body, results.Encode(r))
	}
	if tier := resp.Header.Get("X-Psb-Cache"); tier != "sim" {
		t.Errorf("X-Psb-Cache = %q, want sim", tier)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("exit %d after SIGINT, want 0", c)
		}
	case <-time.After(time.Minute):
		t.Fatal("server did not stop within a minute of SIGINT")
	}
	if out := stderr.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "stopped") {
		t.Errorf("stderr:\n%s", out)
	}
}
