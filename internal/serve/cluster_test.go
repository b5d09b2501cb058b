package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/workload"
)

// handlerVar lets an httptest front end exist (and therefore have a
// URL) before the Server behind it is constructed — cluster membership
// needs every node's address up front, but each node's Server needs
// the membership to be built.
type handlerVar struct{ v atomic.Value }

func (h *handlerVar) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if hh, ok := h.v.Load().(http.Handler); ok {
		hh.ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// newTestCluster boots n in-process nodes sharing one static
// membership and returns them plus a kill switch for one node (safe
// against the cleanup double-closing). Probing is effectively disabled
// (hour-long interval) so tests exercise passive failure detection
// deterministically.
func newTestCluster(t *testing.T, n int, base sim.Config) ([]*Server, []*httptest.Server, func(int)) {
	t.Helper()
	// Warm-push is disabled here: replicas appearing asynchronously on
	// successors would make per-node tier assertions nondeterministic.
	// Warm-push tests opt in via newTestClusterWith.
	return newTestClusterWith(t, n, base, func(cfg *Config) { cfg.WarmPushQueue = -1 })
}

// newTestClusterWith is newTestCluster with a per-node Config hook.
func newTestClusterWith(t *testing.T, n int, base sim.Config, tune func(*Config)) ([]*Server, []*httptest.Server, func(int)) {
	t.Helper()
	hs := make([]*handlerVar, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range tss {
		hs[i] = &handlerVar{}
		tss[i] = httptest.NewServer(hs[i])
		urls[i] = tss[i].URL
	}
	srvs := make([]*Server, n)
	closed := make([]bool, n)
	for i := range srvs {
		cl, err := cluster.New(cluster.Config{
			Self:          urls[i],
			Peers:         urls,
			ProbeInterval: time.Hour,
		})
		if err != nil {
			t.Fatalf("cluster.New(node %d): %v", i, err)
		}
		cfg := Config{Base: base, Workers: 2, Cluster: cl}
		if tune != nil {
			tune(&cfg)
		}
		srvs[i] = New(cfg)
		hs[i].v.Store(srvs[i].Handler())
	}
	t.Cleanup(func() {
		for i := range srvs {
			if closed[i] {
				continue
			}
			tss[i].Close()
			srvs[i].Close()
		}
	})
	kill := func(i int) {
		closed[i] = true
		tss[i].Close()
		srvs[i].Close()
	}
	return srvs, tss, kill
}

// ownerIndex resolves which node owns the body's fingerprint, plus the
// fingerprint itself.
func ownerIndex(t *testing.T, srvs []*Server, tss []*httptest.Server, req JobRequest) (int, string) {
	t.Helper()
	jobs, err := req.Jobs(srvs[0].Base())
	if err != nil || len(jobs) != 1 {
		t.Fatalf("expanding request: %v (%d jobs)", err, len(jobs))
	}
	fp := jobs[0].Fingerprint()
	owner, _ := srvs[0].cluster.Owner(fp)
	for i, ts := range tss {
		if ts.URL == owner {
			return i, fp
		}
	}
	t.Fatalf("owner %q is not a member", owner)
	return -1, ""
}

// totalSims sums locally-executed simulations across the fleet.
func totalSims(srvs []*Server) uint64 {
	var n uint64
	for _, s := range srvs {
		if s == nil {
			continue
		}
		n += s.Stats().Cells.Sim
	}
	return n
}

// TestClusterPeerFill is the tentpole's happy path: a request landing
// on a non-owner fills from the owner (one simulation cluster-wide),
// the fill is cached locally (second request is a mem hit), and every
// response is byte-identical to a direct checked run.
func TestClusterPeerFill(t *testing.T) {
	base := tinyCfg()
	srvs, tss, _ := newTestCluster(t, 3, base)
	w := workload.All()[0]
	v := core.Variants()[0]
	body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, v.String())
	owner, fp := ownerIndex(t, srvs, tss, JobRequest{Bench: w.Name, Scheme: v.String()})
	caller := (owner + 1) % 3
	third := (owner + 2) % 3

	resp, cold := postSim(t, tss[caller], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("caller status %d: %s", resp.StatusCode, cold)
	}
	if tier := resp.Header.Get("X-Psb-Cache"); tier != "peer" {
		t.Errorf("caller tier = %q, want peer (owner is node %d)", tier, owner)
	}
	if n := totalSims(srvs); n != 1 {
		t.Fatalf("cluster-wide sims = %d, want 1", n)
	}
	ost := srvs[owner].Stats()
	if ost.Cells.Sim != 1 || ost.Peer.Served != 1 {
		t.Errorf("owner stats: sim=%d served=%d, want 1/1", ost.Cells.Sim, ost.Peer.Served)
	}
	cst := srvs[caller].Stats()
	if cst.Peer.Fills != 1 || cst.Cells.PeerHits != 1 {
		t.Errorf("caller stats: fills=%d peer_hits=%d, want 1/1", cst.Peer.Fills, cst.Cells.PeerHits)
	}

	// The fill was cached locally: the caller now serves it from memory.
	resp, hot := postSim(t, tss[caller], body)
	if tier := resp.Header.Get("X-Psb-Cache"); tier != "mem" {
		t.Errorf("caller second request tier = %q, want mem", tier)
	}
	// The owner serves its own copy; the third node fills from it too.
	resp, own := postSim(t, tss[owner], body)
	if tier := resp.Header.Get("X-Psb-Cache"); tier != "mem" {
		t.Errorf("owner tier = %q, want mem", tier)
	}
	resp, far := postSim(t, tss[third], body)
	if tier := resp.Header.Get("X-Psb-Cache"); tier != "peer" {
		t.Errorf("third-node tier = %q, want peer", tier)
	}
	if n := totalSims(srvs); n != 1 {
		t.Errorf("cluster-wide sims after fan-out = %d, want still 1", n)
	}

	direct, err := sim.RunChecked(context.Background(), w, v, base)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want := results.Encode(direct)
	for name, got := range map[string][]byte{"cold": cold, "hot": hot, "owner": own, "third": far} {
		if !bytes.Equal(got, want) {
			t.Errorf("%s response differs from direct sim.RunChecked rendering (fp %s)", name, fp)
		}
	}
}

// TestClusterConcurrentDedup hammers one cell across all three nodes
// concurrently and checks the cluster still runs exactly one
// simulation: local singleflight collapses same-node duplicates, and
// forwarded duplicates collapse in the owner's flight group.
func TestClusterConcurrentDedup(t *testing.T) {
	base := tinyCfg()
	srvs, tss, _ := newTestCluster(t, 3, base)
	w := workload.All()[0]
	v := core.Variants()[0]
	body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, v.String())

	const perNode = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	bodies := make([][]byte, 3*perNode)
	for i := 0; i < 3*perNode; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(tss[i%3].URL+"/v1/sim", "application/json", strings.NewReader(body))
			if err != nil {
				failures.Add(1)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				failures.Add(1)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	if n := totalSims(srvs); n != 1 {
		t.Errorf("cluster-wide sims = %d, want exactly 1 under %d concurrent duplicates", n, 3*perNode)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d saw different bytes", i)
		}
	}
}

// TestClusterOwnerDownDegrades kills the owning node and checks the
// survivors keep serving 200s with byte-identical results: the forward
// fails fast, the peer is marked dead, and the cell simulates locally.
func TestClusterOwnerDownDegrades(t *testing.T) {
	base := tinyCfg()
	srvs, tss, kill := newTestCluster(t, 3, base)
	w := workload.All()[0]
	v := core.Variants()[0]
	body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, v.String())
	owner, _ := ownerIndex(t, srvs, tss, JobRequest{Bench: w.Name, Scheme: v.String()})

	kill(owner)
	deadURL := tss[owner].URL
	srvs[owner] = nil

	direct, err := sim.RunChecked(context.Background(), w, v, base)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want := results.Encode(direct)
	for _, i := range []int{(owner + 1) % 3, (owner + 2) % 3} {
		resp, got := postSim(t, tss[i], body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d status %d after owner kill: %s", i, resp.StatusCode, got)
		}
		if tier := resp.Header.Get("X-Psb-Cache"); tier != "sim" {
			t.Errorf("node %d tier = %q, want sim (local fallback)", i, tier)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("node %d degraded response differs from direct rendering", i)
		}
		st := srvs[i].Stats()
		if st.Peer.Fallbacks != 1 {
			t.Errorf("node %d fallbacks = %d, want 1", i, st.Peer.Fallbacks)
		}
		if srvs[i].cluster.Alive(deadURL) {
			t.Errorf("node %d still considers the killed owner alive", i)
		}
		// Dead owner: the ring routes around it, so the next request
		// serves from the local copy, not another doomed forward.
		resp, _ = postSim(t, tss[i], body)
		if tier := resp.Header.Get("X-Psb-Cache"); tier != "mem" {
			t.Errorf("node %d post-fallback tier = %q, want mem", i, tier)
		}
	}
}

// TestClusterHealthSection checks /healthz grows a cluster block on
// cluster members and /v1/stats exposes peer and cluster counters.
func TestClusterHealthSection(t *testing.T) {
	base := tinyCfg()
	srvs, _, _ := newTestCluster(t, 3, base)
	h := srvs[0].Health()
	if h.Cluster == nil {
		t.Fatal("health has no cluster section on a cluster member")
	}
	if h.Cluster.PeersTotal != 3 || h.Cluster.PeersAlive != 3 {
		t.Errorf("cluster health = %d/%d alive, want 3/3", h.Cluster.PeersAlive, h.Cluster.PeersTotal)
	}
	st := srvs[0].Stats()
	if st.Peer == nil || st.Cluster == nil {
		t.Fatalf("stats missing peer/cluster sections: %+v", st)
	}
	if st.Cluster.Self != srvs[0].cluster.Self() {
		t.Errorf("stats self = %q, want %q", st.Cluster.Self, srvs[0].cluster.Self())
	}
}
