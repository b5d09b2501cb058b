package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return string(b)
}

// TestMetricsEndpoint drives one cold+hot request through a standalone
// node and checks the scrape reflects it: tiered cell counters, cache
// counters, queue gauges, the trace cache's bytes — and no cluster
// series on a non-member.
func TestMetricsEndpoint(t *testing.T) {
	base := tinyCfg()
	base.TraceMode = sim.TraceMemory
	_, ts := newTestServer(t, Config{Base: base, Workers: 1})
	w := workload.All()[0]
	body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, core.Variants()[0].String())
	postSim(t, ts, body)
	postSim(t, ts, body)

	text := scrape(t, ts.URL)
	for _, want := range []string{
		"# TYPE psb_cells_total counter",
		`psb_cells_total{tier="sim"} 1`,
		`psb_cells_total{tier="mem"} 1`,
		`psb_cells_total{tier="peer"} 0`,
		"psb_cache_misses_total 1",
		"psb_requests_total 3", // two sims + the scrape itself
		"psb_degraded 0",
		"psb_queue_workers 1",
		"psb_queue_finished_total 1",
		"psb_cache_quarantine_evicted_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
	for _, absent := range []string{"psb_peer_fills_total", "psb_cluster_peers_alive"} {
		if strings.Contains(text, absent) {
			t.Errorf("standalone node exposes cluster series %q", absent)
		}
	}
	// The simulated cell recorded its stream in the process-wide trace
	// cache, and the node is idle, so the gauge reads what the cache
	// holds now.
	held := trace.Shared().Stats().Bytes
	if want := fmt.Sprintf("psb_trace_bytes %d\n", held); held == 0 || !strings.Contains(text, want) {
		t.Errorf("scrape missing %q\n%s", want, text)
	}
}

// TestMetricsCheckpointBytes serves one sampled cell and checks the
// checkpoint store's bytes appear both as the psb_checkpoint_bytes
// gauge and in the checkpoints section of /v1/stats, and that they
// cover the cell's key: its generator's live executor and materialized
// state, the cursor the finished run released (each at least the tag
// arrays and a full train ring) and its miss profile.
func TestMetricsCheckpointBytes(t *testing.T) {
	base := tinyCfg()
	base.MaxInsts = 60_000
	base.TraceMode = sim.TraceMemory
	_, ts := newTestServer(t, Config{Base: base, Workers: 1})
	if resp, b := postSim(t, ts, `{"bench":"health","scheme":"Base","sample":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled request: status %d: %s", resp.StatusCode, b)
	}

	// The node is idle, so both read what the store holds now.
	held := sample.Shared().Stats().Bytes
	mc := base.Mem
	lines := mc.L1D.Sets()*mc.L1D.Ways + mc.L1I.Sets()*mc.L1I.Ways + mc.L2.Sets()*mc.L2.Ways
	state := uint64(16 * (lines + cpu.TrainRingCap))
	if profile := 4 * (base.MaxInsts >> sample.ProfileShift); held < 3*state+profile {
		t.Errorf("store holds %d bytes, want at least %d: an executor, a generator state and a cursor of %d bytes each, and a %d-byte profile",
			held, 3*state+profile, state, profile)
	}
	text := scrape(t, ts.URL)
	if want := fmt.Sprintf("psb_checkpoint_bytes %d\n", held); held == 0 || !strings.Contains(text, want) {
		t.Errorf("scrape missing %q\n%s", want, text)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Checkpoints.Bytes != held || st.Checkpoints.Misses == 0 {
		t.Errorf("stats checkpoints = %+v, want %d bytes and the cell's misses", st.Checkpoints, held)
	}
}

// TestMetricsClusterSeries checks a cluster member's scrape carries the
// peer-protocol and membership series, including per-peer up gauges.
func TestMetricsClusterSeries(t *testing.T) {
	srvs, tss, _ := newTestCluster(t, 3, tinyCfg())
	w := workload.All()[0]
	v := core.Variants()[0]
	body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, v.String())
	owner, _ := ownerIndex(t, srvs, tss, JobRequest{Bench: w.Name, Scheme: v.String()})
	caller := (owner + 1) % 3
	postSim(t, tss[caller], body)

	text := scrape(t, tss[caller].URL)
	for _, want := range []string{
		"psb_peer_fills_total 1",
		"psb_peer_fallbacks_total 0",
		"psb_cluster_peers_alive 3",
		fmt.Sprintf("psb_cluster_peer_up{peer=%q} 1", tss[owner].URL),
		`psb_cells_total{tier="peer"} 1`,
		// A single /v1/sim fill is a batch of one: one RPC carrying one
		// cell. Warm-push is disabled in newTestCluster, so all its
		// outcomes are 0.
		"# TYPE psb_peer_batch_rpcs_total counter",
		"psb_peer_batch_rpcs_total 1",
		"psb_peer_batch_cells_total 1",
		"psb_peer_coalesced_fills_total 0",
		"# TYPE psb_warm_push_total counter",
		`psb_warm_push_total{outcome="sent"} 0`,
		`psb_warm_push_total{outcome="dropped"} 0`,
		`psb_warm_push_total{outcome="failed"} 0`,
		`psb_warm_push_total{outcome="received"} 0`,
		`psb_warm_push_total{outcome="rejected"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster scrape missing %q\n%s", want, text)
		}
	}
	ownerText := scrape(t, tss[owner].URL)
	if !strings.Contains(ownerText, "psb_peer_served_total 1") {
		t.Errorf("owner scrape missing served counter\n%s", ownerText)
	}
}
