package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestServerSampledTier covers the sampled request path end to end:
// "sample": true produces a result carrying the IPC estimate, the cell
// caches independently of the exact cell for the same bench/scheme,
// repeats are byte-identical cache hits, and the psb_sampled_* metrics
// appear once a sampled cell has been served.
func TestServerSampledTier(t *testing.T) {
	base := tinyCfg()
	base.MaxInsts = 60_000
	s, ts := newTestServer(t, Config{Base: base, Workers: 2})

	const sampledBody = `{"bench":"health","scheme":"Base","sample":true}`
	resp, b := postSim(t, ts, sampledBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled request: status %d: %s", resp.StatusCode, b)
	}
	var r sim.Result
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decoding sampled result: %v", err)
	}
	if r.Sampled == nil {
		t.Fatal("sampled response carries no estimate")
	}
	if r.Sampled.IPC <= 0 || r.Sampled.Intervals == 0 {
		t.Errorf("degenerate estimate: %+v", r.Sampled)
	}

	respExact, bExact := postSim(t, ts, `{"bench":"health","scheme":"Base"}`)
	if respExact.StatusCode != http.StatusOK {
		t.Fatalf("exact request: status %d: %s", respExact.StatusCode, bExact)
	}
	var exact sim.Result
	if err := json.Unmarshal(bExact, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Sampled != nil {
		t.Error("exact cell served a sampled estimate: the tiers share a fingerprint")
	}
	if got, want := respExact.Header.Get("X-Psb-Fingerprint"), resp.Header.Get("X-Psb-Fingerprint"); got == want {
		t.Error("sampled and exact cells share a fingerprint")
	}

	respHot, bHot := postSim(t, ts, sampledBody)
	if tier := respHot.Header.Get("X-Psb-Cache"); tier != "mem" {
		t.Errorf("repeat sampled request served from %q, want mem", tier)
	}
	if !bytes.Equal(b, bHot) {
		t.Error("cache-served sampled response differs from the simulated one")
	}

	st := s.Stats()
	if st.Sampled == nil {
		t.Fatal("stats carry no sampled section after sampled cells were served")
	}
	if st.Sampled.Cells != 2 {
		t.Errorf("sampled cells = %d, want 2 (one simulated, one cache hit)", st.Sampled.Cells)
	}
	if st.Sampled.Intervals == 0 || st.Sampled.LastCIRelPct < 0 {
		t.Errorf("sampled counters degenerate: %+v", st.Sampled)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	for _, name := range []string{"psb_sampled_cells_total 2", "psb_sampled_intervals_total", "psb_sampled_last_ci_rel_pct"} {
		if !strings.Contains(string(mb), name) {
			t.Errorf("metrics output lacks %q", name)
		}
	}
}

// TestServerSampledStatsAbsentForExact pins that exact-only servers
// keep their /v1/stats shape: no sampled section appears until a
// sampled cell is actually served.
func TestServerSampledStatsAbsentForExact(t *testing.T) {
	s, ts := newTestServer(t, Config{Base: tinyCfg(), Workers: 1})
	if resp, b := postSim(t, ts, `{"bench":"health","scheme":"Base"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if st := s.Stats(); st.Sampled != nil {
		t.Errorf("exact-only server reports a sampled section: %+v", st.Sampled)
	}
}

// TestClusterSampledTierCounters checks a non-owner counts the sampled
// cells it serves from a peer fill and from its replica, not only the
// ones it simulates itself.
func TestClusterSampledTierCounters(t *testing.T) {
	base := tinyCfg()
	base.MaxInsts = 60_000
	srvs, tss, _ := newTestCluster(t, 2, base)
	owner, _ := ownerIndex(t, srvs, tss, JobRequest{Bench: "health", Scheme: "Base", Sample: true})
	caller := 1 - owner

	const body = `{"bench":"health","scheme":"Base","sample":true}`
	for _, want := range []string{"peer", "mem"} {
		resp, b := postSim(t, tss[caller], body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if tier := resp.Header.Get("X-Psb-Cache"); tier != want {
			t.Errorf("tier = %q, want %q", tier, want)
		}
	}
	if st := srvs[caller].Stats(); st.Sampled == nil || st.Sampled.Cells != 2 {
		t.Errorf("non-owner sampled counters = %+v, want 2 cells", st.Sampled)
	}
	if text := scrape(t, tss[caller].URL); !strings.Contains(text, "psb_sampled_cells_total 2") {
		t.Error("non-owner scrape lacks psb_sampled_cells_total 2")
	}
}
