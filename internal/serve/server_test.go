package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// newTestServer builds a server over the given config plus an httptest
// front end, and tears both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postSim sends one /v1/sim request and returns the response.
func postSim(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sim: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// gatedWorkload wraps the first registered benchmark so a test can
// hold its simulation open: every build counts itself, signals started
// (non-blocking), then waits for release before delegating to the real
// builder.
func gatedWorkload(builds *atomic.Int64, started chan<- struct{}, release <-chan struct{}) workload.Workload {
	real := workload.All()[0]
	w := real
	w.Build = func(seed int64) *vm.Machine {
		builds.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return real.Build(seed)
	}
	return w
}

// TestServerDifferentialByteIdentity is the serving layer's core
// correctness claim: for every workload x scheme, the server's cold
// (simulated) response, its hot (cache-served) response, and the
// canonical rendering of a direct sim.RunChecked are all byte-
// identical.
func TestServerDifferentialByteIdentity(t *testing.T) {
	base := tinyCfg()
	_, ts := newTestServer(t, Config{Base: base, Workers: 2})
	for _, w := range workload.All() {
		for _, v := range core.Variants() {
			body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, v.String())
			resp, cold := postSim(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: cold status %d: %s", w.Name, v, resp.StatusCode, cold)
			}
			if tier := resp.Header.Get("X-Psb-Cache"); tier != "sim" {
				t.Errorf("%s/%s: cold tier %q, want sim", w.Name, v, tier)
			}
			resp, hot := postSim(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: hot status %d: %s", w.Name, v, resp.StatusCode, hot)
			}
			if tier := resp.Header.Get("X-Psb-Cache"); tier != "mem" {
				t.Errorf("%s/%s: hot tier %q, want mem", w.Name, v, tier)
			}
			if !bytes.Equal(cold, hot) {
				t.Errorf("%s/%s: hot response differs from cold", w.Name, v)
			}
			direct, err := sim.RunChecked(context.Background(), w, v, base)
			if err != nil {
				t.Fatalf("%s/%s: direct run: %v", w.Name, v, err)
			}
			if !bytes.Equal(cold, results.Encode(direct)) {
				t.Errorf("%s/%s: server response differs from direct sim.RunChecked rendering", w.Name, v)
			}
		}
	}
}

// TestServerSingleflightDedup holds one simulation open while N
// concurrent requests for the same fingerprint pile up behind it, then
// checks exactly one simulation ran and every follower shared its
// result. Run under -race this also exercises the flight group's
// publication ordering.
func TestServerSingleflightDedup(t *testing.T) {
	const followers = 7
	var builds atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	w := gatedWorkload(&builds, started, release)

	s := New(Config{Base: tinyCfg(), Workers: 1})
	defer s.Close()
	// Unblock the held build before Close waits on the workers, even
	// when an assertion fails first.
	defer releaseOnce()
	job := runner.Job{Workload: w, Variant: core.None, Config: s.Base()}

	type outcome struct {
		cell runner.CellResult
		tier string
		err  error
	}
	outcomes := make(chan outcome, followers+1)
	run := func() {
		c, tier, err := s.cell(job, AnonTenant)
		outcomes <- outcome{c, tier, err}
	}
	go run() // leader
	<-started
	for i := 0; i < followers; i++ {
		go run()
	}
	// Every follower must be parked in the flight before the leader may
	// finish, so the dedup is guaranteed, not scheduling luck.
	for s.flight.followers.Load() < followers {
		runtime.Gosched()
	}
	releaseOnce()

	var tiers []string
	var bodies [][]byte
	for i := 0; i < followers+1; i++ {
		o := <-outcomes
		if o.err != nil || o.cell.Err != nil {
			t.Fatalf("cell failed: %v / %v", o.err, o.cell.Err)
		}
		tiers = append(tiers, o.tier)
		bodies = append(bodies, results.Encode(o.cell.Result))
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want exactly 1 simulation", n)
	}
	var sims, dedups int
	for _, tier := range tiers {
		switch tier {
		case "sim":
			sims++
		case "dedup":
			dedups++
		default:
			t.Errorf("unexpected tier %q", tier)
		}
	}
	if sims != 1 || dedups != followers {
		t.Errorf("tiers = %v, want 1 sim + %d dedup", tiers, followers)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	st := s.Stats()
	if st.Cells.Sim != 1 || st.Cells.Dedup != followers {
		t.Errorf("stats: sim=%d dedup=%d, want 1/%d", st.Cells.Sim, st.Cells.Dedup, followers)
	}

	// The result is now cached: one more call is a mem hit.
	if _, tier, err := s.cell(job, AnonTenant); err != nil || tier != "mem" {
		t.Errorf("post-flight tier = %q (err %v), want mem", tier, err)
	}
}

// TestServerAdmissionControl fills a 1-worker, 1-slot queue and checks
// the next distinct request is rejected with 429 + Retry-After, then
// succeeds once the queue drains.
func TestServerAdmissionControl(t *testing.T) {
	var builds atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	w := gatedWorkload(&builds, started, release)

	s, ts := newTestServer(t, Config{Base: tinyCfg(), Workers: 1, QueueCap: 1})
	// Cleanups run LIFO: unblock the held builds before newTestServer's
	// Close waits on the workers, even when an assertion fails first.
	t.Cleanup(releaseOnce)
	running := s.Base()
	queued := running
	queued.MaxInsts++
	var wg sync.WaitGroup
	submit := func(cfg sim.Config) {
		defer wg.Done()
		if _, _, err := s.cell(runner.Job{Workload: w, Variant: core.None, Config: cfg}, AnonTenant); err != nil {
			t.Errorf("held job rejected: %v", err)
		}
	}
	wg.Add(2)
	go submit(running)
	<-started // worker busy
	go submit(queued)
	for s.disp.Inflight() < 2 { // second job parked in the queue
		runtime.Gosched()
	}

	overload := `{"bench":"health","scheme":"Base","insts":4002}`
	resp, body := postSim(t, ts, overload)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("429 body %q does not say overloaded", body)
	}
	if st := s.Stats(); st.Cells.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Cells.Rejected)
	}

	releaseOnce()
	wg.Wait()
	resp, body = postSim(t, ts, overload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

// TestServerRequestValidation checks the 400 paths: malformed JSON,
// unknown fields, unknown benchmark/scheme names, scheme conflicts,
// multi-cell requests on the single-cell endpoint, and invalid
// configurations (whose text must be the CLI's *sim.ConfigError
// rendering).
func TestServerRequestValidation(t *testing.T) {
	base := tinyCfg()
	_, ts := newTestServer(t, Config{Base: base, Workers: 1})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed", `{"bench":`, "decoding request"},
		{"unknown field", `{"bench":"health","scheme":"Base","typo":1}`, "unknown field"},
		{"trailing data", `{"bench":"health","scheme":"Base"} {}`, "trailing data"},
		{"missing bench", `{"scheme":"Base"}`, `missing \"bench\"`},
		{"unknown bench", `{"bench":"nope","scheme":"Base"}`, "unknown benchmark"},
		{"missing scheme", `{"bench":"health"}`, `missing \"scheme\"`},
		{"unknown scheme", `{"bench":"health","scheme":"nope"}`, "unknown scheme"},
		{"scheme conflict", `{"bench":"health","scheme":"Base","schemes":["Base"]}`, "not both"},
		{"multi cell", `{"bench":"all","scheme":"Base"}`, "/v1/batch"},
		{"overflowing budget", `{"bench":"health","scheme":"Base","insts":18446744073709551515}`, "at MaxInsts"},
	}
	for _, tc := range cases {
		resp, body := postSim(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body: %s)", tc.name, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.want)
		}
	}

	// The invalid-config error text must match the CLI's rendering.
	bad := base
	bad.Mem.L1D.Ways = -3
	wantErr := bad.Validate()
	if wantErr == nil {
		t.Fatalf("expected Ways=-3 to fail validation")
	}
	resp, body := postSim(t, ts, `{"bench":"health","scheme":"Base","l1_ways":-3}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad geometry: status %d (body %s)", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if e.Error != wantErr.Error() {
		t.Errorf("config error text = %q, want CLI rendering %q", e.Error, wantErr.Error())
	}

	// Wrong method routes to 405.
	resp2, err := http.Get(ts.URL + "/v1/sim")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sim: status %d, want 405", resp2.StatusCode)
	}
}

// TestServerBatchDedupAndStats fans a batch with duplicate cells and
// checks the duplicates are deduplicated (one simulation each) and the
// stats counters add up.
func TestServerBatchDedupAndStats(t *testing.T) {
	base := tinyCfg()
	s, ts := newTestServer(t, Config{Base: base, Workers: 2})
	body := `{"jobs":[
		{"bench":"health","scheme":"Base"},
		{"bench":"health","scheme":"Base"},
		{"bench":"turb3d","scheme":"Base"}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if len(br.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(br.Cells))
	}
	for i, c := range br.Cells {
		if c.Error != "" || c.Result == nil {
			t.Fatalf("cell %d failed: %s", i, c.Error)
		}
		if c.Fingerprint == "" {
			t.Errorf("cell %d: missing fingerprint", i)
		}
	}
	if br.Cells[0].Fingerprint != br.Cells[1].Fingerprint {
		t.Fatalf("duplicate cells got different fingerprints")
	}
	if !bytes.Equal(results.Encode(*br.Cells[0].Result), results.Encode(*br.Cells[1].Result)) {
		t.Errorf("duplicate cells rendered differently")
	}
	st := s.Stats()
	if st.Cells.Sim != 2 {
		t.Errorf("simulated = %d, want 2 (duplicate deduped)", st.Cells.Sim)
	}
	if st.Cells.Dedup+st.Cells.MemHits != 1 {
		t.Errorf("dedup+mem = %d+%d, want 1", st.Cells.Dedup, st.Cells.MemHits)
	}
	if st.Cells.Total != 3 {
		t.Errorf("total = %d, want 3", st.Cells.Total)
	}
}

// TestServerArtifactMatchesDirect regenerates a named figure through
// the server and checks the text equals the experiments driver run
// directly over sim.RunChecked — cache-served cells included.
func TestServerArtifactMatchesDirect(t *testing.T) {
	base := tinyCfg()
	base.MaxInsts = 2_000
	s, ts := newTestServer(t, Config{Base: base, Workers: 2})
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/artifact", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, cold := post(`{"name":"fig5"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact status %d: %s", resp.StatusCode, cold)
	}
	direct := func(jobs []runner.Job) []runner.CellResult {
		cells, err := runner.New(2).RunChecked(context.Background(), jobs, runner.Options{})
		if err != nil {
			t.Fatalf("direct RunChecked: %v", err)
		}
		return cells
	}
	want, err := experiments.Artifact("fig5", base, direct)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(cold); got != want.String()+"\n" {
		t.Errorf("server fig5 differs from direct run:\n--- server ---\n%s\n--- direct ---\n%s", got, want)
	}

	// Second fetch is fully cache-served and byte-identical.
	before := s.Stats().Cells.Sim
	resp, hot := post(`{"name":"fig5"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot artifact status %d", resp.StatusCode)
	}
	if !bytes.Equal(cold, hot) {
		t.Errorf("hot artifact differs from cold")
	}
	if after := s.Stats().Cells.Sim; after != before {
		t.Errorf("hot artifact simulated %d new cells, want 0", after-before)
	}

	resp, body := post(`{"name":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown artifact: status %d (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "table2") {
		t.Errorf("unknown-artifact error does not list valid names: %s", body)
	}
}

// TestServerTenantRateLimit checks the per-API-key token bucket: a
// tenant that exhausts its burst gets 429 with a refill-priced
// Retry-After while other tenants are admitted untouched, and the
// stats endpoint attributes the throttling to the right key.
func TestServerTenantRateLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Base:    tinyCfg(),
		Workers: 1,
		// A glacial refill and a 1-cell burst: the second request in
		// any tenant's lifetime is throttled.
		Tenant: TenantPolicy{Rate: 0.001, Burst: 1},
	})
	post := func(key, body string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/sim", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(TenantHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	body := `{"bench":"health","scheme":"Base"}`

	if resp, b := post("alice", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice's first request: status %d (%s)", resp.StatusCode, b)
	}
	resp, b := post("alice", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice's second request: status %d, want 429 (%s)", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "rate limited") {
		t.Errorf("throttle body %q does not say rate limited", b)
	}
	var ob overloadBody
	if err := json.Unmarshal(b, &ob); err != nil || ob.RetryAfterSec < 1 || ob.Queue.Workers != 1 {
		t.Errorf("throttle body = %+v (err %v), want retry hint and queue stats", ob, err)
	}
	if got := resp.Header.Get("Retry-After"); got == "" || got == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", got)
	}

	// Bob and the anonymous bucket are isolated from Alice's spend.
	if resp, b := post("bob", body); resp.StatusCode != http.StatusOK {
		t.Errorf("bob throttled by alice's spend: status %d (%s)", resp.StatusCode, b)
	}
	if resp, b := post("", body); resp.StatusCode != http.StatusOK {
		t.Errorf("anon throttled by alice's spend: status %d (%s)", resp.StatusCode, b)
	}

	var alice *TenantStats
	for _, row := range s.Stats().Tenants {
		if row.Tenant == "alice" {
			row := row
			alice = &row
		}
	}
	if alice == nil || alice.Admitted != 1 || alice.Throttled != 1 {
		t.Errorf("alice's stats row = %+v, want 1 admitted, 1 throttled", alice)
	}
}

// TestServerRequestLogging checks -log-requests emits one JSON line
// per request carrying the tenant, cache tier, fingerprint and
// outcome.
func TestServerRequestLogging(t *testing.T) {
	var log bytes.Buffer
	_, ts := newTestServer(t, Config{Base: tinyCfg(), Workers: 1, RequestLog: &log})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sim",
		strings.NewReader(`{"bench":"health","scheme":"Base"}`))
	req.Header.Set(TenantHeader, "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	postSim(t, ts, `{"bench":"nope","scheme":"Base"}`) // a 400, logged too

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2: %q", len(lines), log.String())
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v (%q)", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 is not JSON: %v (%q)", err, lines[1])
	}
	if first["event"] != "request" || first["tenant"] != "carol" ||
		first["status"] != float64(http.StatusOK) || first["tier"] != "sim" ||
		first["outcome"] != "ok" || first["fingerprint"] == "" {
		t.Errorf("request line = %v", first)
	}
	if second["status"] != float64(http.StatusBadRequest) || second["outcome"] != "error" {
		t.Errorf("error line = %v", second)
	}
}

// TestServerDiskDegradeRecoverHealth is the acceptance path end to
// end over HTTP: a dying disk demotes the node to memory-only — with
// /healthz flying the degraded flag while requests keep succeeding —
// and once the faults clear, the node heals back to non-degraded
// within one probe interval.
func TestServerDiskDegradeRecoverHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Base:         tinyCfg(),
		Workers:      1,
		CacheDir:     t.TempDir(),
		Faults:       FaultPlan{Seed: 11, DiskFail: 1},
		HealInterval: time.Millisecond,
	})
	health := func() HealthReport {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz status %d (a degraded node must still answer 200)", resp.StatusCode)
		}
		var h HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := health(); h.Degraded || !h.FaultsActive {
		t.Fatalf("initial health = %+v, want non-degraded with faults active", h)
	}

	// Every disk op fails; distinct cells accumulate the failure streak
	// (a read on the miss, a write on the fill) until the tier demotes.
	// Requests must succeed throughout.
	for i := 0; !s.Degraded(); i++ {
		if i > 2*diskDemoteAfter {
			t.Fatalf("node never degraded under a 100%% disk failure rate")
		}
		body := fmt.Sprintf(`{"bench":"health","scheme":"Base","insts":%d}`, 2000+i)
		if resp, b := postSim(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request during disk failure: status %d (%s)", resp.StatusCode, b)
		}
	}
	h := health()
	if !h.Degraded || h.Status != "degraded" || h.Cache.Disk != "degraded" {
		t.Fatalf("degraded health = %+v", h)
	}

	// Clear the faults; the next cache miss past the probe interval
	// probes the healthy disk and restores the tier.
	s.Faults().Clear()
	time.Sleep(3 * time.Millisecond)
	if resp, b := postSim(t, ts, `{"bench":"health","scheme":"Base","insts":2900}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-clear request: status %d (%s)", resp.StatusCode, b)
	}
	h = health()
	if h.Degraded || h.Status != "ok" || h.Cache.Disk != "ok" || h.FaultsActive {
		t.Fatalf("post-recovery health = %+v, want ok", h)
	}
}

// TestServerStatsEndpoint checks /v1/stats renders a parseable
// snapshot with sane queue and runtime facts.
func TestServerStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Base: tinyCfg(), Workers: 2, QueueCap: 9})
	postSim(t, ts, `{"bench":"health","scheme":"Base"}`)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Queue.Workers != 2 || st.Queue.Capacity != 9 {
		t.Errorf("queue = %+v, want workers 2 cap 9", st.Queue)
	}
	if st.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d", st.GOMAXPROCS)
	}
	if st.Cells.Sim != 1 || st.Requests < 1 {
		t.Errorf("cells/requests = %+v / %d", st.Cells, st.Requests)
	}
}
