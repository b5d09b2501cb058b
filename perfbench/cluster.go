package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// clusterNodes is the fleet size; setupProbes the number of extra cold
// set-ups (each in its own process) behind the set-up median.
const (
	clusterNodes = 3
	setupProbes  = 2
	// coldCheck is how many cold cells, in schedule order, are
	// re-simulated directly after the timed phase to check the bytes
	// the fleet served for them.
	coldCheck = 8
	// tracedResim caps the traced phase's cold /v1/sim cells that are
	// re-simulated for the cpu, sbuf and runner metrics.
	tracedResim = 24
	// clusterTailQ is op_tail_ms's percentile: at the offered rate a
	// run's window holds over a thousand requests.
	clusterTailQ = 0.99
)

// node is one in-process psbserved.
type node struct {
	url  string
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
}

// fleet is the three-node cluster on loopback listeners. The nodes
// share the process-wide trace cache.
type fleet struct{ nodes []*node }

// bootFleet starts the nodes as psbserved would with one sim worker,
// warm-push on and the memory trace cache.
func bootFleet() (*fleet, error) {
	lns := make([]net.Listener, clusterNodes)
	urls := make([]string, clusterNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	f := &fleet{}
	for i, ln := range lns {
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		n := &node{url: urls[i], done: make(chan struct{}),
			srv: serve.New(serve.Config{Base: clusterBase(), Workers: 1, Cluster: cl})}
		n.hs = &http.Server{Handler: n.srv.Handler()}
		go func(ln net.Listener) {
			defer close(n.done)
			n.hs.Serve(ln)
		}(ln)
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// close drains each node's listener, waits for it, then stops its
// workers.
func (f *fleet) close() {
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.hs.Shutdown(ctx)
		cancel()
		<-n.done
		n.srv.Close()
	}
}

// totals sums the fleet's counters.
type totals struct {
	cells                 serve.CellCounters
	batchRPCs, coalesced  uint64
	warmSent, warmDropped uint64
}

func (f *fleet) totals() totals {
	var t totals
	for _, n := range f.nodes {
		st := n.srv.Stats()
		t.cells.Total += st.Cells.Total
		t.cells.Sim += st.Cells.Sim
		if p := st.Peer; p != nil {
			t.batchRPCs += p.BatchRPCs
			t.coalesced += p.Coalesced
			t.warmSent += p.WarmPushSent
			t.warmDropped += p.WarmPushDropped
		}
	}
	return t
}

// client is the generator's HTTP client: at most clusterConns
// connections per node, and the generator never has more than
// clusterConns requests in flight in total.
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: clusterConns, MaxConnsPerHost: clusterConns,
		DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: time.Minute}, tr
}

// response is one request's outcome.
type response struct {
	status  int
	body    []byte
	tier    string
	serveUs float64
	err     error
}

func post(c *http.Client, url, path string, body []byte) response {
	resp, err := c.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	us, _ := strconv.ParseFloat(resp.Header.Get("X-Psb-Serve-Us"), 64)
	return response{status: resp.StatusCode, body: b, tier: resp.Header.Get("X-Psb-Cache"), serveUs: us, err: err}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types are plain data
	}
	return b
}

// warmStreams records the six 60K-instruction streams the nodes
// replay.
func warmStreams(rec *recorder) error {
	for _, w := range workload.All() {
		s := time.Now()
		if err := sim.WarmTrace(w, clusterBase()); err != nil {
			return err
		}
		rec.add("sim.WarmTrace", 0, 0, s, time.Now())
	}
	return nil
}

// prewarm asks every node for every hot cell, so each node holds all
// 36 in its memory tier. It returns the canonical bytes per hot cell.
func prewarm(f *fleet, c *http.Client, t *cellTable) ([][]byte, error) {
	out := make([][]byte, t.hot)
	for _, n := range f.nodes {
		for i := 0; i < t.hot; i++ {
			r := post(c, n.url, "/v1/sim", mustJSON(t.reqs[i]))
			if r.err != nil || r.status != http.StatusOK {
				return nil, fmt.Errorf("prewarm %s on %s: status %d: %v %s", t.key(i), n.url, r.status, r.err, r.body)
			}
			out[i] = r.body
		}
	}
	return out, nil
}

// setUpFleet is the cluster-mix set-up a fresh psbserved fleet pays:
// record the streams, boot the nodes, pre-warm every hot cell on every
// node.
//
// The returned duration is the process CPU time the set-up took, like
// the passes' set-up, so time stolen from the host does not count.
func setUpFleet(rec *recorder, c *http.Client, t *cellTable) (*fleet, [][]byte, time.Duration, error) {
	start := cpuTime()
	if err := warmStreams(rec); err != nil {
		return nil, nil, 0, err
	}
	f, err := bootFleet()
	if err != nil {
		return nil, nil, 0, err
	}
	hot, err := prewarm(f, c, t)
	if err != nil {
		f.close()
		return nil, nil, 0, err
	}
	return f, hot, time.Duration(cpuTime() - start), nil
}

// probeClusterSetup is the setup-probe mode: one cold set-up in a
// fresh process.
func probeClusterSetup() (time.Duration, error) {
	c, tr := newClient()
	defer tr.CloseIdleConnections()
	f, _, d, err := setUpFleet(nil, c, newCellTable(0))
	if err != nil {
		return 0, err
	}
	f.close()
	return d, nil
}

func spawnSetupProbe(bin string, a args) (float64, error) {
	cmd := exec.Command(bin, "-mode", "setup-probe", "-root", a.root, "-out", a.out)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// result is one request's measured outcome.
type result struct {
	req      request
	lateNs   int64 // sent minus due
	latNs    int64 // done minus due
	resp     response
	err      error
	coldHash map[int]string // canonical-byte digest per cold cell served
}

// checker validates responses against references.
type checker struct {
	t        *cellTable
	ref      *refs
	artifact map[string][]byte
}

func (ck *checker) check(r *result) {
	resp := r.resp
	switch {
	case resp.err != nil:
		r.err = resp.err
		return
	case resp.status != http.StatusOK:
		r.err = fmt.Errorf("%s on node %d: status %d: %s", r.req.Kind, r.req.Node, resp.status,
			strings.TrimSpace(string(resp.body)))
		return
	}
	r.coldHash = map[int]string{}
	cellBytes := func(i int, b []byte) error {
		if ck.t.isHot(i) {
			return checkDigest(ck.ref.ClusterHot, ck.t.key(i), b)
		}
		r.coldHash[i] = digest(b)
		return nil
	}
	switch r.req.Kind {
	case kindHot, kindCold:
		r.err = cellBytes(r.req.Cells[0], resp.body)
	case kindBatch:
		var br serve.BatchResponse
		if err := json.Unmarshal(resp.body, &br); err != nil {
			r.err = err
			return
		}
		if len(br.Cells) != len(r.req.Cells) {
			r.err = fmt.Errorf("batch returned %d cells for %d", len(br.Cells), len(r.req.Cells))
			return
		}
		for k, bc := range br.Cells {
			if bc.Error != "" || bc.Result == nil {
				r.err = fmt.Errorf("batch cell %s: %s", ck.t.key(r.req.Cells[k]), bc.Error)
				return
			}
			if err := cellBytes(r.req.Cells[k], serve.EncodeResult(*bc.Result)); err != nil {
				r.err = err
				return
			}
		}
	case kindArtifact:
		if !bytes.Equal(resp.body, ck.artifact[r.req.Artifact]) {
			r.err = fmt.Errorf("artifact %s differs from its rendering of the reference cells", r.req.Artifact)
		}
	}
}

// expectedArtifacts renders each served artifact from the hot cells'
// reference-checked bytes, as psbserved prints it.
func expectedArtifacts(t *cellTable, hot [][]byte) (map[string][]byte, error) {
	byCell := map[string]sim.Result{}
	for i := 0; i < t.hot; i++ {
		var r sim.Result
		if err := json.Unmarshal(hot[i], &r); err != nil {
			return nil, err
		}
		byCell[t.key(i)] = r
	}
	run := func(jobs []runner.Job) []runner.CellResult {
		out := make([]runner.CellResult, len(jobs))
		for i, j := range jobs {
			out[i].Result = byCell[j.Workload.Name+"/"+j.Variant.String()]
		}
		return out
	}
	out := map[string][]byte{}
	for _, name := range artifactNames {
		tab, err := experiments.Artifact(name, clusterBase(), run)
		if err != nil {
			return nil, err
		}
		out[name] = []byte(tab.String() + "\n")
	}
	return out, nil
}

// generate plays a schedule against the fleet with clusterConns
// workers. Each request is timed from when it was due, so time spent
// waiting for a free connection counts. Responses are checked later,
// off the generator's schedule.
func generate(f *fleet, c *http.Client, t *cellTable, sched []request, start time.Time, rec *recorder, opBase int) []result {
	out := make([]result, len(sched))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < clusterConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := &out[i]
				r.req = sched[i]
				due := start.Add(r.req.Due)
				sent := time.Now()
				r.lateNs = sent.Sub(due).Nanoseconds()
				url := f.nodes[r.req.Node].url
				switch r.req.Kind {
				case kindHot, kindCold:
					r.resp = post(c, url, "/v1/sim", mustJSON(t.reqs[r.req.Cells[0]]))
				case kindBatch:
					var br serve.BatchRequest
					for _, ci := range r.req.Cells {
						br.Jobs = append(br.Jobs, t.reqs[ci])
					}
					r.resp = post(c, url, "/v1/batch", mustJSON(br))
				case kindArtifact:
					r.resp = post(c, url, "/v1/artifact", mustJSON(serve.ArtifactRequest{Name: r.req.Artifact}))
				}
				done := time.Now()
				r.latNs = done.Sub(due).Nanoseconds()
				rec.add("http."+r.req.Kind.String(), 0, opBase+i+1, due, done)
			}
		}()
	}
	for i := range sched {
		if d := time.Until(start.Add(sched[i].Due)); d > 0 {
			time.Sleep(d)
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// phase is one timed stretch of traffic and what the fleet did in it.
type phase struct {
	res           []result
	before, after totals
	coldCells     int
	inflightMax   int
	cpuNs         int64       // process CPU time over the phase
	trace         trace.Stats // the trace cache at the end of the phase
	gc0, gc1      runtime.MemStats
}

func runPhase(f *fleet, c *http.Client, t *cellTable, ck *checker, seed int64, from, window time.Duration,
	firstCold int, rec *recorder, opBase int) (*phase, int) {
	sched, next := makeSchedule(seed, t, from, window, firstCold)
	p := &phase{before: f.totals(), coldCells: next - firstCold}
	runtime.ReadMemStats(&p.gc0)
	c0 := cpuTime()
	stop := make(chan struct{})
	var poll sync.WaitGroup
	if rec != nil {
		poll.Add(1)
		go func() {
			defer poll.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, n := range f.nodes {
						if q := n.srv.Stats().Queue.Inflight; q > p.inflightMax {
							p.inflightMax = q
						}
					}
				}
			}
		}()
	}
	p.res = generate(f, c, t, sched, time.Now(), rec, opBase)
	p.cpuNs = cpuTime() - c0
	close(stop)
	poll.Wait()
	runtime.ReadMemStats(&p.gc1)
	p.after = f.totals()
	p.trace = trace.Shared().Stats()
	for i := range p.res {
		ck.check(&p.res[i])
	}
	return p, next
}

func (p *phase) latencies(pick func(*result) bool) []float64 {
	var v []float64
	for i := range p.res {
		if pick(&p.res[i]) {
			v = append(v, float64(p.res[i].latNs)/1e6)
		}
	}
	return v
}

// runClusterMix is the cluster-mix workload: a median-of-three cold
// set-up, then open-loop traffic for the window (a traced run splits
// the window into an untraced and a traced half), then a direct
// re-simulation of a fixed sample of the cold cells served.
func runClusterMix(bin string, a args, rec *recorder) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	ref, err := loadRefs(filepath.Join(a.root, "perfbench", refsFile))
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		s, err := spawnSetupProbe(bin, a)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	t := newCellTable(a.seed)
	blocks := int(float64(a.seconds)*clusterRate)/blockLen + 1
	if need, have := blocks*(coldPerBlock+batchCold), len(t.reqs)-t.hot; need > have {
		return nil, fmt.Errorf("--seconds %d needs %d distinct cold cells; there are %d", a.seconds, need, have)
	}
	c, tr := newClient()
	defer tr.CloseIdleConnections()
	tr0 := trace.Shared().Stats()
	f, hot, d, err := setUpFleet(rec, c, t)
	if err != nil {
		return nil, err
	}
	defer f.close()
	tr1 := trace.Shared().Stats()
	setups = append(setups, d.Seconds())
	o.e2e["setup_s"] = median(setups)
	o.note("set-up samples %v s (%d probes in fresh processes + this process)", setups, setupProbes)
	ck := &checker{t: t, ref: ref}
	if ck.artifact, err = expectedArtifacts(t, hot); err != nil {
		return nil, err
	}
	for i := 0; i < t.hot; i++ {
		o.attempted++
		if err := checkDigest(ref.ClusterHot, t.key(i), hot[i]); err != nil {
			o.failed++
			o.fail("prewarm: " + err.Error())
		}
	}

	window := time.Duration(a.seconds) * time.Second
	var phases []*phase
	next := t.hot
	if a.trace {
		var p *phase
		p, next = runPhase(f, c, t, ck, a.seed, 0, window/2, next, nil, 0)
		phases = append(phases, p)
		p, next = runPhase(f, c, t, ck, a.seed, window/2, window/2, next, rec, len(p.res))
		phases = append(phases, p)
	} else {
		var p *phase
		p, next = runPhase(f, c, t, ck, a.seed, 0, window, next, nil, 0)
		phases = append(phases, p)
	}
	var lat, late []float64
	var simInsts, cpuNs float64
	for _, p := range phases {
		simInsts += float64(p.after.cells.Sim-p.before.cells.Sim) * float64(clusterBase().MaxInsts)
		cpuNs += float64(p.cpuNs)
		for i := range p.res {
			r := &p.res[i]
			o.attempted++
			if r.err != nil {
				o.failed++
				o.fail(r.err.Error())
			}
			lat = append(lat, float64(r.latNs)/1e6)
			late = append(late, float64(r.lateNs)/1e6)
		}
	}
	// Correctness of the cold cells: re-simulate a fixed sample directly.
	resim := resimulate(t, phases, rec, a.trace)
	for _, rs := range resim {
		o.attempted++
		if rs.err != nil {
			o.failed++
			o.fail(rs.err.Error())
		}
	}

	last := phases[len(phases)-1]
	o.e2e["minst_per_s"] = 1e3 * ratio(simInsts, cpuNs)
	o.e2e["op_p50_ms"] = median(lat)
	if !a.trace {
		tl, err := tail(lat, clusterTailQ)
		if err != nil {
			o.failed++
			o.fail("op_tail_ms: " + err.Error())
		}
		o.e2e["op_tail_ms"] = tl
	}
	o.e2e["peak_rss_mb"] = selfPeakRSS()
	lateP99 := quantile(late, 0.99)
	o.note("%d requests at %.0f/s over %s, %d cold cells; generator late p50 %.3f ms, p99 %.3f ms",
		len(lat), clusterRate, window, next-t.hot, median(late), lateP99)
	if !a.trace {
		o.note("op_tail_ms is p%g over %d ops", clusterTailQ*100, len(lat))
	}

	for k := kindHot; k <= kindArtifact; k++ {
		var v []float64
		for _, p := range phases {
			v = append(v, p.latencies(func(r *result) bool { return r.req.Kind == k })...)
		}
		s := sorted(v)
		if len(s) > 0 {
			o.note("%-8s %5d requests: p50 %.3f ms, p90 %.3f ms, max %.3f ms", k, len(s),
				s[len(s)/2], s[len(s)*9/10], s[len(s)-1])
		}
	}
	if a.trace {
		o.layer = clusterLayers(t, phases, resim, tr0, tr1, rec)
		o.layer["gen.late_p99_ms"] = lateP99
		o.layer["runner.inflight_max"] = float64(last.inflightMax)
		o.layer["trace_overhead_pct"] = 100 * (median(last.latencies(isAny))/median(phases[0].latencies(isAny)) - 1)
	}
	return o, nil
}

func isAny(*result) bool { return true }

// resim is one cold cell re-simulated outside the fleet.
type resim struct {
	served  *result
	ns      int64 // sim.RunChecked
	wrapped int64 // the timed-prefetcher run (traced only)
	res     sim.Result
	tp      *timedPrefetcher
	err     error
	mallocs uint64
	bytes   uint64
}

// resimulate re-runs cold cells directly: the first coldCheck cold
// cells served (checked against the served bytes), and in a traced run
// also every cold /v1/sim of the traced phase, through the timed
// prefetcher, for the cpu, sbuf and runner metrics.
func resimulate(t *cellTable, phases []*phase, rec *recorder, traced bool) []resim {
	var out []resim
	ctx := context.Background()
	base := clusterBase()
	picked := map[int]bool{}
	add := func(r *result, ci int) {
		if picked[ci] || r.err != nil {
			return
		}
		picked[ci] = true
		jobs, err := t.reqs[ci].Jobs(base)
		rs := resim{served: r}
		if err != nil || len(jobs) != 1 {
			rs.err = fmt.Errorf("cold cell %s: expanding request: %v", t.key(ci), err)
			out = append(out, rs)
			return
		}
		j := jobs[0]
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := time.Now()
		rs.res, err = sim.RunChecked(ctx, j.Workload, j.Variant, j.Config)
		e := time.Now()
		runtime.ReadMemStats(&m1)
		rs.ns, rs.mallocs, rs.bytes = e.Sub(s).Nanoseconds(), m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		rec.add("sim.RunChecked", 0, 0, s, e)
		switch {
		case err != nil:
			rs.err = fmt.Errorf("cold cell %s: direct simulation: %w", t.key(ci), err)
		case resultDigest(rs.res) != r.coldHash[ci]:
			rs.err = fmt.Errorf("cold cell %s: served bytes differ from a direct simulation", t.key(ci))
		}
		if traced && rs.err == nil {
			s := time.Now()
			var wr sim.Result
			wr, rs.tp = runWrapped(j.Workload, j.Variant, j.Config)
			e := time.Now()
			rs.wrapped = e.Sub(s).Nanoseconds()
			id := rec.add("sim.RunWithPrefetcher", 0, 0, s, e)
			rec.addDur("sbuf.Prefetcher", id, 0, s, rs.tp.ns)
			if !reflect.DeepEqual(wr, rs.res) {
				rs.err = fmt.Errorf("cold cell %s: wrapped-prefetcher result differs from sim.RunChecked", t.key(ci))
			}
		}
		out = append(out, rs)
	}
	n := 0
	for _, p := range phases {
		for i := range p.res {
			r := &p.res[i]
			for _, ci := range r.req.Cells {
				if !t.isHot(ci) && n < coldCheck {
					add(r, ci)
					n++
				}
			}
		}
	}
	if traced {
		last := phases[len(phases)-1]
		for i := range last.res {
			if r := &last.res[i]; r.req.Kind == kindCold && len(out) < coldCheck+tracedResim {
				add(r, r.req.Cells[0])
			}
		}
	}
	return out
}

// clusterLayers computes the traced cluster-mix run's per-layer
// metrics from its traced phase, its direct re-simulations and the
// fleet's counters.
func clusterLayers(t *cellTable, phases []*phase, rs []resim, tr0, tr1 trace.Stats, rec *recorder) map[string]float64 {
	p := phases[len(phases)-1]
	m := map[string]float64{}
	tierLat := func(kind reqKind, tier string) float64 {
		return median(p.latencies(func(r *result) bool {
			return r.req.Kind == kind && r.resp.tier == tier && r.err == nil
		}))
	}
	m["serve.mem_ms"] = tierLat(kindHot, "mem")
	m["serve.sim_ms"] = tierLat(kindCold, "sim")
	m["serve.dedup_ms"] = tierLat(kindCold, "dedup")
	m["cluster.peer_ms"] = tierLat(kindCold, "peer")
	var serverUs []float64
	batches := 0
	for i := range p.res {
		r := &p.res[i]
		if r.err != nil {
			continue
		}
		switch r.req.Kind {
		case kindHot, kindCold:
			serverUs = append(serverUs, r.resp.serveUs)
		case kindBatch:
			batches++
		}
	}
	m["serve.server_us"] = median(serverUs)
	m["serve.decode_us"], m["serve.encode_us"] = codecProbe(t, p, rec)
	d := func(a, b uint64) float64 { return float64(b - a) }
	m["serve.hit_rate"] = 1 - ratio(d(p.before.cells.Sim, p.after.cells.Sim), d(p.before.cells.Total, p.after.cells.Total))
	m["serve.sims_per_cold_cell"] = ratio(d(p.before.cells.Sim, p.after.cells.Sim), float64(p.coldCells))
	m["cluster.peer_rpcs_per_batch"] = ratio(d(p.before.batchRPCs, p.after.batchRPCs), float64(batches))
	m["cluster.coalesced_fills"] = d(p.before.coalesced, p.after.coalesced)
	m["cluster.warm_push_sent"] = d(p.before.warmSent, p.after.warmSent)
	m["cluster.warm_push_dropped"] = d(p.before.warmDropped, p.after.warmDropped)
	m["trace.recorded_insts"] = d(tr0.RecordedInsts, tr1.RecordedInsts)
	m["trace.hits"] = d(tr0.Hits, p.trace.Hits)
	m["trace.misses"] = d(tr0.Misses, p.trace.Misses)
	var recordNs float64
	for _, s := range rec.all() {
		if s.Name == "sim.WarmTrace" {
			recordNs += float64(s.dur())
		}
	}
	m["trace.record_ns_per_inst"] = ratio(recordNs, m["trace.recorded_insts"])

	// Layers of the cold cells, from their direct re-simulations.
	l := newLayerSums()
	var waits []float64
	for _, x := range rs {
		if x.tp == nil || x.err != nil {
			continue
		}
		l.wrapped(x.res, x.ns, x.wrapped, x.tp)
		l.ops++
		l.mallocs += float64(x.mallocs)
		l.allocBytes += float64(x.bytes)
		if x.served.req.Kind == kindCold && x.served.resp.tier == "sim" {
			waits = append(waits, x.served.resp.serveUs/1e3-float64(x.ns)/1e6)
		}
	}
	l.coreMetrics(m)
	// The go metrics cover the traced phase, not the re-simulations;
	// trace_overhead_pct compares the two phases (runClusterMix).
	m["go.gc_cycles"] = float64(p.gc1.NumGC - p.gc0.NumGC)
	m["go.gc_pause_ms"] = float64(p.gc1.PauseTotalNs-p.gc0.PauseTotalNs) / 1e6
	m["runner.wait_ms"] = median(waits)
	return m
}

// codecProbe times the serve codec standalone on the traced phase's own
// request bodies and results: DecodeJobRequest / DecodeBatchRequest per
// body and EncodeResult per cell result, in microseconds per call.
func codecProbe(t *cellTable, p *phase, rec *recorder) (decodeUs, encodeUs float64) {
	var bodies [][]byte
	var batch []bool
	var results []sim.Result
	for i := range p.res {
		r := &p.res[i]
		switch r.req.Kind {
		case kindHot, kindCold:
			bodies, batch = append(bodies, mustJSON(t.reqs[r.req.Cells[0]])), append(batch, false)
			if r.err == nil {
				var res sim.Result
				if json.Unmarshal(r.resp.body, &res) == nil {
					results = append(results, res)
				}
			}
		case kindBatch:
			var br serve.BatchRequest
			for _, ci := range r.req.Cells {
				br.Jobs = append(br.Jobs, t.reqs[ci])
			}
			bodies, batch = append(bodies, mustJSON(br)), append(batch, true)
		}
	}
	s := time.Now()
	for i, b := range bodies {
		var err error
		if batch[i] {
			_, err = serve.DecodeBatchRequest(b)
		} else {
			_, err = serve.DecodeJobRequest(b)
		}
		if err != nil {
			return 0, 0
		}
	}
	e := time.Now()
	rec.add("serve.Decode", 0, 0, s, e)
	decodeUs = ratio(float64(e.Sub(s))/1e3, float64(len(bodies)))
	s = time.Now()
	for _, r := range results {
		serve.EncodeResult(r)
	}
	e = time.Now()
	rec.add("serve.EncodeResult", 0, 0, s, e)
	return decodeUs, ratio(float64(e.Sub(s))/1e3, float64(len(results)))
}

// selfPeakRSS is this process's peak resident set in MiB.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
