package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// postBatch sends one /v1/batch request and decodes the response.
func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, BatchResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body)
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), &br); err != nil {
			t.Fatalf("decoding batch response: %v\n%s", err, raw.Bytes())
		}
	}
	return resp, br, raw.Bytes()
}

// batchBody renders n distinct single-cell jobs (insts varies) as a
// /v1/batch body, and returns the matching expanded jobs.
func batchBody(t *testing.T, base sim.Config, n int, instsBase uint64) (string, []runner.Job) {
	t.Helper()
	w := workload.All()[0]
	v := core.Variants()[0]
	var parts []string
	var jobs []runner.Job
	for i := 0; i < n; i++ {
		insts := instsBase + uint64(i)
		parts = append(parts, fmt.Sprintf(`{"bench":%q,"scheme":%q,"insts":%d}`, w.Name, v.String(), insts))
		jr := JobRequest{Bench: w.Name, Scheme: v.String(), Insts: insts}
		expanded, err := jr.Jobs(base)
		if err != nil || len(expanded) != 1 {
			t.Fatalf("expanding job %d: %v (%d jobs)", i, err, len(expanded))
		}
		jobs = append(jobs, expanded[0])
	}
	return fmt.Sprintf(`{"jobs":[%s]}`, strings.Join(parts, ",")), jobs
}

// TestClusterBatchDifferential is the tentpole's acceptance test: a
// 60-cell batch through one ingress node must cost exactly one peer
// RPC per distinct remote owner (not one per cell), exactly one
// simulation per cell cluster-wide, and every batched result must be
// byte-identical to the per-cell /v1/sim answer.
func TestClusterBatchDifferential(t *testing.T) {
	base := tinyCfg()
	srvs, tss, _ := newTestCluster(t, 3, base)
	const cells = 60
	body, jobs := batchBody(t, base, cells, 3001)

	// Which nodes own the cells, as the ingress node sees it?
	ingress := 0
	remoteOwners := map[string]bool{}
	for _, job := range jobs {
		if owner, self := srvs[ingress].cluster.Owner(job.Fingerprint()); !self {
			remoteOwners[owner] = true
		}
	}
	if len(remoteOwners) != 2 {
		t.Fatalf("expected the 60 cells to touch both remote owners, got %d", len(remoteOwners))
	}

	resp, br, raw := postBatch(t, tss[ingress], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d\n%s", resp.StatusCode, raw)
	}
	if len(br.Cells) != cells {
		t.Fatalf("batch returned %d cells, want %d", len(br.Cells), cells)
	}
	for i, bc := range br.Cells {
		if bc.Error != "" || bc.Result == nil {
			t.Fatalf("cell %d failed: %q", i, bc.Error)
		}
	}

	// One RPC per remote owner, all cells accounted for, none coalesced
	// (no concurrent traffic), and exactly one sim per cell fleet-wide.
	pc := srvs[ingress].Stats().Peer
	if pc.BatchRPCs != uint64(len(remoteOwners)) {
		t.Errorf("batch RPCs = %d, want %d (one per remote owner)", pc.BatchRPCs, len(remoteOwners))
	}
	if pc.BatchCells != pc.Fills || pc.Fills == 0 {
		t.Errorf("batch cells = %d, fills = %d: every batched cell should fill", pc.BatchCells, pc.Fills)
	}
	if got := totalSims(srvs); got != cells {
		t.Errorf("cluster-wide sims = %d, want %d", got, cells)
	}

	// The scrape reflects the same counters.
	text := scrape(t, tss[ingress].URL)
	for _, want := range []string{
		fmt.Sprintf("psb_peer_batch_rpcs_total %d", pc.BatchRPCs),
		fmt.Sprintf("psb_peer_batch_cells_total %d", pc.BatchCells),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Differential: per-cell answers from a different node are
	// byte-identical to the batched results.
	for i, job := range jobs {
		cfg := job.Config
		req := fmt.Sprintf(`{"bench":%q,"scheme":%q,"insts":%d}`,
			job.Workload.Name, job.Variant.String(), cfg.MaxInsts)
		resp, single := postSim(t, tss[2], req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cell %d: /v1/sim status %d", i, resp.StatusCode)
		}
		if !bytes.Equal(results.Encode(*br.Cells[i].Result), single) {
			t.Errorf("cell %d: batch result bytes differ from /v1/sim", i)
		}
	}
}

// TestClusterBatchOwnerKillFallback kills one node mid-fleet and
// checks a batch through a survivor still answers every cell: the dead
// owner's cells fall back to local simulation, counted as fallbacks.
func TestClusterBatchOwnerKillFallback(t *testing.T) {
	base := tinyCfg()
	srvs, tss, kill := newTestCluster(t, 3, base)
	const cells = 24
	body, jobs := batchBody(t, base, cells, 5001)

	// Pick a victim that owns at least one cell from the ingress
	// node's perspective.
	ingress := 0
	victim := -1
	victimCells := 0
	for v := 1; v < 3; v++ {
		n := 0
		for _, job := range jobs {
			if owner, _ := srvs[ingress].cluster.Owner(job.Fingerprint()); owner == tss[v].URL {
				n++
			}
		}
		if n > victimCells {
			victim, victimCells = v, n
		}
	}
	if victim < 0 {
		t.Fatal("no remote node owns any batch cell")
	}
	kill(victim)

	resp, br, raw := postBatch(t, tss[ingress], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d\n%s", resp.StatusCode, raw)
	}
	for i, bc := range br.Cells {
		if bc.Error != "" || bc.Result == nil {
			t.Fatalf("cell %d failed after owner kill: %q", i, bc.Error)
		}
	}
	pc := srvs[ingress].Stats().Peer
	if pc.Fallbacks == 0 {
		t.Errorf("no fallbacks counted; %d cells were owned by the killed node", victimCells)
	}
	if srvs[ingress].cluster.Alive(tss[victim].URL) {
		t.Error("ingress still considers the killed owner alive")
	}
}

// TestPeerFlightCoalesce pins the singleflight contract both flight
// groups share: many concurrent callers for one fingerprint elect
// exactly one leader, finish publishes the leader's outcome to every
// follower (counted), a failed outcome is forgotten so the next caller
// leads, and a panic inside do reaches only the leader while every
// follower gets an error.
func TestPeerFlightCoalesce(t *testing.T) {
	var g flightGroup[sim.Result]
	const waiters = 16
	follow := func(key string, errs chan<- error) {
		c, lead := g.begin(key)
		if lead {
			t.Error("second leader elected while a call is in flight")
		}
		_, err := c.wait()
		errs <- err
	}
	leaderCall, leader := g.begin("fp-1")
	if !leader {
		t.Fatal("first caller must lead")
	}
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go follow("fp-1", errs)
	}
	for g.followers.Load() < waiters {
		runtime.Gosched()
	}
	g.finish("fp-1", leaderCall, sim.Result{}, nil)
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("follower saw %v after a successful fill", err)
		}
	}

	// The key is forgotten: the next caller leads a fresh fill. A
	// failed outcome reaches its follower and is forgotten too.
	failed, lead := g.begin("fp-1")
	if !lead {
		t.Fatal("finished key not forgotten")
	}
	go follow("fp-1", errs)
	for g.followers.Load() < waiters+1 {
		runtime.Gosched()
	}
	g.finish("fp-1", failed, sim.Result{}, errPeerUnfilled)
	if err := <-errs; !errors.Is(err, errPeerUnfilled) {
		t.Errorf("follower of a failed fill saw %v, want errPeerUnfilled", err)
	}
	if _, lead := g.begin("fp-1"); !lead {
		t.Error("failed outcome cached: the next caller did not lead")
	}

	// A panicking leader: the panic stays on its goroutine, and every
	// follower is settled with an error instead of a zero result.
	var p flightGroup[runner.CellResult]
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		p.do("fp-2", func() (runner.CellResult, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	for i := 0; i < waiters; i++ {
		go func() {
			_, err, shared := p.do("fp-2", func() (runner.CellResult, error) {
				t.Error("a follower ran the leader's work")
				return runner.CellResult{}, nil
			})
			if !shared {
				t.Error("follower not marked shared")
			}
			errs <- err
		}()
	}
	for p.followers.Load() < waiters {
		runtime.Gosched()
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", r)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; err == nil {
			t.Fatal("follower of a panicked leader got a nil error")
		}
	}
	if _, lead := p.begin("fp-2"); !lead {
		t.Error("panicked call not forgotten")
	}
}

// TestPeerFillCorruptPayload makes a plain handler the owner of a
// cell and has it answer fills with a payload that is not in canonical
// form. The ingress node must simulate the cell locally, serve and
// cache the canonical bytes, and count one fallback: no fill, no skew
// refusal (nothing disagreed on the fingerprint) and no fill time.
func TestPeerFillCorruptPayload(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req PeerBatchRequest
		if r.URL.Path != "/v1/peer/batch" || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.Error(w, "unexpected request", http.StatusBadRequest)
			return
		}
		var resp PeerBatchResponse
		for _, j := range req.Jobs {
			resp.Cells = append(resp.Cells, PeerBatchCell{Fingerprint: j.Fingerprint, Tier: "mem", Payload: `{"bogus":1}`})
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer fake.Close()
	front := &handlerVar{}
	ingress := httptest.NewServer(front)
	defer ingress.Close()
	cl, err := cluster.New(cluster.Config{
		Self:          ingress.URL,
		Peers:         []string{ingress.URL, fake.URL},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	s := New(Config{Base: tinyCfg(), Workers: 1, Cluster: cl, WarmPushQueue: -1})
	defer s.Close()
	front.v.Store(s.Handler())

	// Pick a cell the fake node owns.
	w := workload.All()[0]
	v := core.Variants()[0]
	var job runner.Job
	insts := uint64(3001)
	for ; insts < 3100; insts++ {
		jobs, err := JobRequest{Bench: w.Name, Scheme: v.String(), Insts: insts}.Jobs(s.Base())
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := cl.Owner(jobs[0].Fingerprint()); owner == fake.URL {
			job = jobs[0]
			break
		}
	}
	if insts == 3100 {
		t.Fatal("the fake node owns none of 99 candidate cells")
	}

	resp, got := postSim(t, ingress, fmt.Sprintf(`{"bench":%q,"scheme":%q,"insts":%d}`, w.Name, v.String(), insts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if tier := resp.Header.Get("X-Psb-Cache"); tier != "sim" {
		t.Errorf("tier = %q, want sim (local fallback)", tier)
	}
	direct, err := sim.RunChecked(context.Background(), w, v, job.Config)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want := results.Encode(direct)
	if !bytes.Equal(got, want) {
		t.Error("fallback response differs from the direct rendering")
	}
	pc := s.Stats().Peer
	if pc.Fallbacks != 1 || pc.SkewRejects != 0 || pc.Fills != 0 || pc.FillP50Us != 0 {
		t.Errorf("counters: fallbacks=%d skew_rejects=%d fills=%d fill_ewma_us=%g, want 1/0/0/0",
			pc.Fallbacks, pc.SkewRejects, pc.Fills, pc.FillP50Us)
	}
	if res, _, ok := s.cache.peek(job.Fingerprint()); !ok || !bytes.Equal(results.Encode(res), want) {
		t.Error("cache does not hold the canonical bytes after the corrupt fill")
	}
}

// TestClusterWarmPush checks the anti-entropy path: a cold simulation
// on the owner is replicated, asynchronously, to the fingerprint's
// ring successor, whose cache then holds the identical bytes.
func TestClusterWarmPush(t *testing.T) {
	base := tinyCfg()
	srvs, tss, _ := newTestClusterWith(t, 3, base, nil) // warm-push on (default queue)
	w := workload.All()[0]
	v := core.Variants()[0]
	req := JobRequest{Bench: w.Name, Scheme: v.String()}
	owner, fp := ownerIndex(t, srvs, tss, req)

	// Ask the owner directly: a cold local simulation, then a push.
	body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, v.String())
	resp, canonical := postSim(t, tss[owner], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/sim on owner: status %d", resp.StatusCode)
	}

	target := srvs[owner].warmTarget(fp)
	succ := -1
	for i, ts := range tss {
		if ts.URL == target {
			succ = i
		}
	}
	if succ < 0 {
		t.Fatalf("warm target %q is not a member", target)
	}

	// The successor counts a push just after caching it, and the owner
	// counts it only once it has read the successor's reply, so both
	// counters can trail the cache entry: wait for all three.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, _, cached := srvs[succ].cache.peek(fp)
		sent := srvs[owner].Stats().Peer.WarmPushSent
		recv := srvs[succ].Stats().Peer.WarmPushReceived
		if cached && sent > 0 && recv > 0 {
			if !bytes.Equal(results.Encode(res), canonical) {
				t.Fatal("warm-pushed bytes differ from the owner's response")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm push incomplete: successor cached %v, owner counted %d sent, successor %d received",
				cached, sent, recv)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The successor now serves the cell from memory: no extra sim.
	resp, replica := postSim(t, tss[succ], body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(replica, canonical) {
		t.Error("successor's served bytes differ after warm push")
	}
	if got := totalSims(srvs); got != 1 {
		t.Errorf("cluster-wide sims = %d, want 1 (warm push must not re-simulate)", got)
	}
}

// TestWarmPushFailover measures what warm-push saves when a node dies.
// Every workload × variant cell is simulated on its owner, one owner
// is killed and marked dead on both survivors (standing in for one
// probe round), and each survivor is asked for every one of the dead
// owner's cells. With warm-push on, the dead owner's ring successor
// already holds each cell, so the survivors simulate none of them.
// With it off, each cell is simulated once: by the survivor asked
// first, or by the one it forwards to, and the other survivor fills
// from that copy.
func TestWarmPushFailover(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue int // Config.WarmPushQueue: 0 = default depth, -1 = off
	}{{"on", 0}, {"off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			srvs, tss, kill := newTestClusterWith(t, 3, tinyCfg(), func(cfg *Config) { cfg.WarmPushQueue = tc.queue })
			var owned [3][]string // request bodies, by owning node
			for _, w := range workload.All() {
				for _, v := range core.Variants() {
					owner, _ := ownerIndex(t, srvs, tss, JobRequest{Bench: w.Name, Scheme: v.String()})
					body := fmt.Sprintf(`{"bench":%q,"scheme":%q}`, w.Name, v.String())
					if resp, raw := postSim(t, tss[owner], body); resp.StatusCode != http.StatusOK {
						t.Fatalf("%s on its owner: status %d\n%s", body, resp.StatusCode, raw)
					}
					owned[owner] = append(owned[owner], body)
				}
			}
			if tc.queue >= 0 {
				// An owner counts a push as sent once the successor has
				// accepted it, so this waits until every cell is warm.
				cells := uint64(len(workload.All()) * len(core.Variants()))
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
					var sent uint64
					for _, s := range srvs {
						sent += s.Stats().Peer.WarmPushSent
					}
					if sent == cells {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("owners counted %d of %d pushes as sent", sent, cells)
					}
				}
			}

			dead := 0
			for i := range owned {
				if len(owned[i]) > len(owned[dead]) {
					dead = i
				}
			}
			kill(dead)
			srvs[dead] = nil
			for _, s := range srvs {
				if s != nil {
					s.cluster.MarkDead(tss[dead].URL)
				}
			}
			before := totalSims(srvs)
			for _, body := range owned[dead] {
				for i, ts := range tss {
					if srvs[i] == nil {
						continue
					}
					if resp, raw := postSim(t, ts, body); resp.StatusCode != http.StatusOK {
						t.Fatalf("%s on survivor %d: status %d\n%s", body, i, resp.StatusCode, raw)
					}
				}
			}
			got := totalSims(srvs) - before
			want := uint64(len(owned[dead]))
			if tc.queue >= 0 {
				want = 0
			}
			if got != want {
				t.Errorf("survivors simulated %d of the dead owner's %d cells again, want %d",
					got, len(owned[dead]), want)
			}
			t.Logf("warm-push %s: %d new simulations for the dead owner's %d cells", tc.name, got, len(owned[dead]))
		})
	}
}

// TestPeerBatchGuards covers the protocol edges: the endpoint is 404
// on a standalone node, 508 past the hop budget, and a skewed
// fingerprint fails only its own cell (409 status inside a 200
// response) while the rest of the batch still answers.
func TestPeerBatchGuards(t *testing.T) {
	w := workload.All()[0]
	v := core.Variants()[0]

	// Standalone: the peer surface does not exist.
	_, solo := newTestServer(t, Config{Base: tinyCfg(), Workers: 1})
	resp, err := http.Post(solo.URL+"/v1/peer/batch", "application/json", strings.NewReader(`{"jobs":[]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("standalone /v1/peer/batch status %d, want 404", resp.StatusCode)
	}

	srvs, tss, _ := newTestCluster(t, 2, tinyCfg())
	// Hop budget: a claimed second hop is a loop.
	reqBody := fmt.Sprintf(`{"jobs":[{"req":{"bench":%q,"scheme":%q},"fingerprint":""}]}`, w.Name, v.String())
	hr, _ := http.NewRequest(http.MethodPost, tss[0].URL+"/v1/peer/batch", strings.NewReader(reqBody))
	hr.Header.Set(PeerHopHeader, "2")
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Errorf("hop=2 status %d, want 508", resp.StatusCode)
	}
	if srvs[0].Stats().Peer.LoopRejects != 1 {
		t.Error("loop reject not counted")
	}
	if n := totalSims(srvs); n != 0 {
		t.Errorf("a looped request still simulated (%d sims)", n)
	}

	// Per-cell skew: the bogus cell carries a 409 status, the good
	// cell still answers.
	mixed := fmt.Sprintf(`{"jobs":[{"req":{"bench":%q,"scheme":%q},"fingerprint":"bogus"},{"req":{"bench":%q,"scheme":%q,"insts":3001},"fingerprint":""}]}`,
		w.Name, v.String(), w.Name, v.String())
	resp, err = http.Post(tss[0].URL+"/v1/peer/batch", "application/json", strings.NewReader(mixed))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var pr PeerBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pr.Cells) != 2 {
		t.Fatalf("mixed batch: status %d, %d cells", resp.StatusCode, len(pr.Cells))
	}
	if pr.Cells[0].Status != http.StatusConflict || pr.Cells[0].Payload != "" {
		t.Errorf("skewed cell: status %d payload %q, want 409 and empty", pr.Cells[0].Status, pr.Cells[0].Payload)
	}
	if pr.Cells[1].Error != "" || pr.Cells[1].Payload == "" {
		t.Errorf("good cell failed alongside the skewed one: %q", pr.Cells[1].Error)
	}
	if srvs[0].Stats().Peer.SkewRejects != 1 {
		t.Error("skew reject not counted")
	}
	if n := totalSims(srvs); n != 1 {
		t.Errorf("mixed batch ran %d sims, want 1 (the good cell only)", n)
	}

	// The single-cell peer endpoint is gone: a caller on an older
	// version gets a 404 and falls back to local simulation.
	resp, err = http.Post(tss[0].URL+"/v1/peer/sim", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/peer/sim status %d, want 404", resp.StatusCode)
	}

	// Warm-push skew: whole request refused with 409.
	warm := fmt.Sprintf(`{"req":{"bench":%q,"scheme":%q},"fingerprint":"bogus","payload":"{}"}`, w.Name, v.String())
	resp, err = http.Post(tss[0].URL+"/v1/peer/warm", "application/json", strings.NewReader(warm))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("skewed warm push status %d, want 409", resp.StatusCode)
	}
	if srvs[0].Stats().Peer.WarmPushRejected != 1 {
		t.Error("warm-push rejection not counted")
	}
}

// TestBatchAdmission429Parity pins the satellite fix: batch admission
// rejections carry the same queue-priced Retry-After and queue-stats
// body the single-cell 429 does — partially-rejected batches annotate
// the refused cells and the response, fully-rejected batches answer
// exactly like a refused /v1/sim.
func TestBatchAdmission429Parity(t *testing.T) {
	var builds atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	w := gatedWorkload(&builds, started, release)

	s, ts := newTestServer(t, Config{Base: tinyCfg(), Workers: 1, QueueCap: 1})
	t.Cleanup(releaseOnce)

	// Pre-warm one cell so the partial batch has a served half.
	resp, _ := postSim(t, ts, `{"bench":"health","scheme":"Base","insts":4001}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-warm status %d", resp.StatusCode)
	}

	// Fill worker + queue with held simulations.
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
	<-started
	go submit(queued)
	for s.disp.Inflight() < 2 {
		runtime.Gosched()
	}

	// Partial: cached cell serves, fresh cell is queue-rejected; the
	// 200 response carries the 429's pricing.
	resp, br, raw := postBatch(t, ts, `{"jobs":[{"bench":"health","scheme":"Base","insts":4001},{"bench":"health","scheme":"Base","insts":4002}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch status %d\n%s", resp.StatusCode, raw)
	}
	if br.Cells[0].Error != "" || br.Cells[0].Result == nil {
		t.Errorf("cached cell failed: %q", br.Cells[0].Error)
	}
	if br.Cells[1].Error == "" || br.Cells[1].RetryAfterSec < 1 {
		t.Errorf("rejected cell not priced: error %q retry %d", br.Cells[1].Error, br.Cells[1].RetryAfterSec)
	}
	if br.RetryAfterSec < 1 || br.Queue == nil {
		t.Errorf("partial batch response lacks pricing: retry %d queue %v", br.RetryAfterSec, br.Queue)
	}
	if got := resp.Header.Get("Retry-After"); got != fmt.Sprintf("%d", br.RetryAfterSec) {
		t.Errorf("Retry-After header %q != body retry %d", got, br.RetryAfterSec)
	}

	// Full rejection: same status, headers and body shape as /v1/sim.
	resp, _, raw = postBatch(t, ts, `{"jobs":[{"bench":"health","scheme":"Base","insts":4003},{"bench":"health","scheme":"Base","insts":4004}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fully-rejected batch status %d, want 429\n%s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var ob struct {
		Error         string     `json:"error"`
		RetryAfterSec int        `json:"retry_after_sec"`
		Queue         QueueStats `json:"queue"`
	}
	if err := json.Unmarshal(raw, &ob); err != nil {
		t.Fatalf("429 body is not the overload shape: %v\n%s", err, raw)
	}
	if ob.RetryAfterSec < 1 || !strings.Contains(ob.Error, "overloaded") {
		t.Errorf("429 body not queue-priced: %+v", ob)
	}
	if ob.Queue.Capacity != 1 {
		t.Errorf("queue stats capacity = %d, want 1", ob.Queue.Capacity)
	}

	releaseOnce()
	wg.Wait()
}
