package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
)

// runPsbload runs the command in process and returns its exit status,
// stdout and stderr.
func runPsbload(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.Bytes(), stderr.String()
}

// decodeReport parses a benchmark report and checks the gates every
// run must hold: no failed request and no byte mismatch.
func decodeReport(t *testing.T, b []byte) report {
	t.Helper()
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, b)
	}
	if r.Errors != 0 || r.ByteMismatches != 0 {
		t.Fatalf("errors %d, byte mismatches %d, want 0", r.Errors, r.ByteMismatches)
	}
	return r
}

// TestInProcessNode: with no -targets, psbload boots one psbserved and
// the whole run, dedup burst included, costs one simulation per unique
// cell.
func TestInProcessNode(t *testing.T) {
	code, stdout, stderr := runPsbload(t, "-insts", "20000", "-hot-iters", "2", "-gate-dedup")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	r := decodeReport(t, stdout)
	if len(r.Nodes) != 1 || r.DedupSims != 1 || r.ClusterSims != uint64(r.Cells+1) {
		t.Fatalf("nodes %d, dedup_sims %d, cluster_sims %d for %d cells; want 1 node, 1 and cells+1",
			len(r.Nodes), r.DedupSims, r.ClusterSims, r.Cells)
	}
}

// TestCluster drives three in-process cluster nodes through the
// per-cell waves, the dedup burst and the batched phase with the
// dedup and batch-RPC gates on.
func TestCluster(t *testing.T) {
	const nodes = 3
	lns := make([]net.Listener, nodes)
	urls := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	base := sim.Default()
	base.TraceMode = sim.TraceMemory
	for i, ln := range lns {
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(serve.Config{Base: base, Workers: 2, Cluster: cl})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
	}

	code, stdout, stderr := runPsbload(t, "-targets", strings.Join(urls, ","), "-insts", "20000", "-hot-iters", "2",
		"-batch-size", "8", "-gate-batch-rpcs", "-gate-dedup")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	r := decodeReport(t, stdout)
	if len(r.Nodes) != nodes || r.DedupSims != 1 || r.Batch == nil || r.Batch.ByteMismatches != 0 {
		t.Fatalf("nodes %d, dedup_sims %d, batch %+v; want %d nodes, 1 and a clean batch section",
			len(r.Nodes), r.DedupSims, r.Batch, nodes)
	}
}

// TestMaxSimsGate: a run that costs more simulations than -max-sims
// exits 1 and names the gate; its report still lands in -out.
func TestMaxSimsGate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := runPsbload(t, "-insts", "2000", "-hot-iters", "0", "-max-sims", "1", "-out", out)
	if code != 1 || !strings.Contains(stderr, "GATE FAILED: -max-sims") {
		t.Fatalf("exit %d, want 1 naming -max-sims; stderr:\n%s", code, stderr)
	}
	if len(stdout) != 0 {
		t.Errorf("stdout not empty with -out:\n%s", stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	decodeReport(t, b)
}

// TestFlagMisuse: bad flags exit 2 before any traffic; -h exits 0.
func TestFlagMisuse(t *testing.T) {
	if code, _, stderr := runPsbload(t, "-h"); code != 0 || !strings.Contains(stderr, "-targets") {
		t.Errorf("-h: exit %d, want 0 and the flag list; stderr:\n%s", code, stderr)
	}
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-concurrency", "0"},
		{"-chaos", "-targets", "127.0.0.1:1,127.0.0.1:2"},
		{"-chaos", "-chaos-faults", "sim-panic=2"},
	} {
		if code, _, stderr := runPsbload(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr:\n%s", args, code, stderr)
		}
	}
}
