package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestConfigNormalize(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"ok bare hostport", Config{Self: "a:1", Peers: []string{"a:1", "b:2"}}, ""},
		{"ok scheme", Config{Self: "http://a:1", Peers: []string{"a:1/", "http://b:2"}}, ""},
		{"missing self", Config{Peers: []string{"a:1", "b:2"}}, "-advertise is required"},
		{"self not member", Config{Self: "c:3", Peers: []string{"a:1", "b:2"}}, "not in the peer list"},
		{"too few", Config{Self: "a:1", Peers: []string{"a:1"}}, "at least 2 peers"},
	}
	for _, tc := range cases {
		got, err := tc.cfg.normalize()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
				continue
			}
			if got.VNodes != DefaultVNodes || got.ProbeInterval <= 0 || got.ForwardTimeout <= 0 {
				t.Errorf("%s: defaults not resolved: %+v", tc.name, got)
			}
			for _, p := range got.Peers {
				if !strings.HasPrefix(p, "http") {
					t.Errorf("%s: peer %q missing scheme", tc.name, p)
				}
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestClusterOwnerSkipsDeadPeers builds a 3-member view and checks
// owner resolution walks the ring past dead peers, landing on self
// when everyone else is down — and that MarkDead/markAlive drive the
// transition counters.
func TestClusterOwnerSkipsDeadPeers(t *testing.T) {
	self := "http://self:1"
	peers := []string{self, "http://p1:1", "http://p2:1"}
	c, err := New(Config{Self: self, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find a fingerprint owned by a remote peer.
	var fp, owner string
	for _, k := range fakeFingerprints(200) {
		if o := c.Ring().Owner(k); o != self {
			fp, owner = k, o
			break
		}
	}
	if fp == "" {
		t.Fatal("no remotely-owned fingerprint in 200 tries")
	}
	if got, isSelf := c.Owner(fp); got != owner || isSelf {
		t.Fatalf("healthy owner = %s/%v, want %s/false", got, isSelf, owner)
	}

	// Kill the owner: resolution moves to the next alive successor.
	c.MarkDead(owner)
	next, isSelf := c.Owner(fp)
	if next == owner {
		t.Fatalf("dead owner %s still selected", owner)
	}
	succ := c.Ring().Successors(fp, 3)
	if want := succ[1]; next != want {
		t.Errorf("fallback owner = %s, want ring successor %s", next, want)
	}
	_ = isSelf

	// Kill everyone: self owns everything.
	for _, p := range peers {
		c.MarkDead(p)
	}
	if got, isSelf := c.Owner(fp); got != self || !isSelf {
		t.Fatalf("all-dead owner = %s/%v, want self/true", got, isSelf)
	}

	// Revive and check the counters saw the transitions.
	c.markAlive(owner)
	st := c.Stats()
	if st.MarksDead == 0 || st.MarksAlive == 0 {
		t.Errorf("transition counters = dead %d alive %d, want both > 0", st.MarksDead, st.MarksAlive)
	}
	if got, _ := c.Owner(fp); got != owner {
		t.Errorf("revived owner = %s, want %s", got, owner)
	}
}

// TestClusterProbeMarksDeadAndRecovers runs the real probe loop
// against a live httptest peer, flips the peer to failing, and checks
// the cluster marks it dead and then alive again once it recovers.
func TestClusterProbeMarksDeadAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !healthy.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer peer.Close()

	self := "http://self:1"
	c, err := New(Config{
		Self:          self,
		Peers:         []string{self, peer.URL},
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for c.Alive(peer.URL) != want {
			if time.Now().After(deadline) {
				t.Fatalf("peer never became %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(true, "alive")
	healthy.Store(false)
	waitFor(false, "dead")
	healthy.Store(true)
	waitFor(true, "alive again")
	if st := c.Stats(); st.Probes == 0 || st.ProbeFails == 0 {
		t.Errorf("probe counters = %d/%d, want both > 0", st.Probes, st.ProbeFails)
	}
}

// TestClusterForwardRetriesTransportErrors checks Forward retries a
// refused connection and surfaces HTTP errors without retrying.
func TestClusterForwardRetriesTransportErrors(t *testing.T) {
	var hits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer peer.Close()

	self := "http://self:1"
	c, err := New(Config{Self: self, Peers: []string{self, peer.URL}, ForwardRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// HTTP-level error: exactly one attempt, response returned.
	resp, err := c.Forward(t.Context(), peer.URL, "/v1/peer/batch", []byte("{}"), nil)
	if err != nil {
		t.Fatalf("forward to live peer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || hits.Load() != 1 {
		t.Errorf("status %d after %d attempts, want 429 after 1", resp.StatusCode, hits.Load())
	}

	// Transport error: retried (attempts = 1 + ForwardRetries), then
	// surfaced as an error.
	dead := "http://127.0.0.1:1"
	before := c.Stats().Forwards
	if _, err := c.Forward(t.Context(), dead, "/v1/peer/batch", []byte("{}"), nil); err == nil {
		t.Fatal("forward to dead peer succeeded")
	}
	st := c.Stats()
	if got := st.Forwards - before; got != 3 {
		t.Errorf("dead-peer attempts = %d, want 3 (1 + 2 retries)", got)
	}
	if st.ForwardErrors < 3 {
		t.Errorf("forward errors = %d, want >= 3", st.ForwardErrors)
	}
}
