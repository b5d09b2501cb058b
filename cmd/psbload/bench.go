package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// nodeReport is one target's row in the report.
type nodeReport struct {
	URL      string `json:"url"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
	// Latency percentiles, split cold (first wave; simulations and peer
	// fills) and hot (later waves; cache hits).
	ColdP50Us float64 `json:"cold_p50_us"`
	ColdP99Us float64 `json:"cold_p99_us"`
	HotP50Us  float64 `json:"hot_p50_us"`
	HotP99Us  float64 `json:"hot_p99_us"`
	// HitRate is the fraction of this node's requests answered without
	// a local simulation (mem/disk/peer/dedup tiers).
	HitRate float64 `json:"hit_rate"`
	// TierCounts breaks the node's responses down by X-Psb-Cache tier.
	TierCounts map[string]int `json:"tier_counts"`
	// Deltas from the node's own /v1/stats across the waves.
	Sims          uint64 `json:"sims"`
	PeerFills     uint64 `json:"peer_fills"`
	PeerServed    uint64 `json:"peer_served"`
	PeerFallbacks uint64 `json:"peer_fallbacks"`
}

// report is the benchmark's JSON schema.
type report struct {
	Targets     []string `json:"targets"`
	Cells       int      `json:"cells"`
	Concurrency int      `json:"concurrency"`
	HotIters    int      `json:"hot_iters"`
	InstsPerSim uint64   `json:"insts_per_sim"`

	Nodes []nodeReport `json:"nodes"`

	// Fleet-wide p50 latency of the cold wave and of the hot waves.
	// SpeedupHot is their ratio: how much faster a cache hit answers
	// than a fresh simulation, HTTP round trip included.
	ColdP50Us  float64 `json:"cold_p50_us"`
	HotP50Us   float64 `json:"hot_p50_us"`
	SpeedupHot float64 `json:"speedup_hot"`

	// The dedup burst: DedupRequests concurrent identical requests for
	// an uncached cell, spread over the targets, cost DedupSims
	// simulations fleet-wide (want exactly 1).
	DedupRequests int    `json:"dedup_requests"`
	DedupSims     uint64 `json:"dedup_sims"`

	// ClusterSims is the fleet-wide simulation delta over the whole
	// run; SimsPerCell is its ratio to the unique cell count (1.0 =
	// perfect dedup), the burst's and the batched phase's cells
	// included.
	ClusterSims uint64  `json:"cluster_sims"`
	SimsPerCell float64 `json:"sims_per_cell"`
	// ClusterHitRate is 1 - sims/requests: the fraction of all requests
	// the fleet answered without simulating.
	ClusterHitRate float64 `json:"cluster_hit_rate"`
	// ByteMismatches counts responses whose bytes differed from their
	// cell's reference response (must be 0).
	ByteMismatches int     `json:"byte_mismatches"`
	HotRPS         float64 `json:"hot_rps"`
	Errors         int     `json:"errors"`

	// Batch is the scatter-gather phase's report (-batch-size > 0).
	Batch *batchReport `json:"batch,omitempty"`
}

// batchReport is the batched (/v1/batch) phase of the report.
type batchReport struct {
	BatchSize int `json:"batch_size"`
	// Batches is the distinct batch count; BatchesPosted counts every
	// posting (cold + hot waves, each batch posted to every target).
	Batches       int `json:"batches"`
	BatchesPosted int `json:"batches_posted"`
	// Cells is the unique batched cell count (fresh seed, disjoint
	// from the per-cell phase so the cold fan-out is real).
	Cells int `json:"cells"`

	// Per-batch wall-time percentiles, cold (fan-out + simulation)
	// and hot (every cell cache-served somewhere).
	ColdP50Us float64 `json:"cold_p50_us"`
	ColdP95Us float64 `json:"cold_p95_us"`
	HotP50Us  float64 `json:"hot_p50_us"`
	HotP95Us  float64 `json:"hot_p95_us"`

	// HotCellsPerSec is the batched hot path's throughput in cells per
	// second; SpeedupVsPerCell is its ratio to the per-cell hot RPS on
	// the same box (the batching win).
	HotCellsPerSec   float64 `json:"hot_cells_per_sec"`
	SpeedupVsPerCell float64 `json:"speedup_vs_per_cell"`

	// Fleet-wide deltas across the batched phase.
	Sims           uint64 `json:"sims"`
	PeerBatchRPCs  uint64 `json:"peer_batch_rpcs"`
	PeerBatchCells uint64 `json:"peer_batch_cells"`
	CoalescedFills uint64 `json:"coalesced_fills"`
	WarmPushSent   uint64 `json:"warm_push_sent"`

	// ByteMismatches counts batched cells whose canonical bytes
	// differed from the per-cell /v1/sim answer (must be 0).
	ByteMismatches int `json:"byte_mismatches"`
}

// sample is one /v1/sim reply reduced to what the report needs: the
// body is kept only as its hash, so byte identity is checked without
// holding every response in memory.
type sample struct {
	latency time.Duration
	tier    string
	status  int
	hash    [sha256.Size]byte
}

func simSample(r reply) sample {
	s := sample{latency: r.latency, tier: r.tier, status: r.status, hash: sha256.Sum256(r.body)}
	if s.status == 0 {
		s.tier = "error"
	}
	return s
}

// cellBody is the /v1/sim request for one cell.
func cellBody(bench string, v core.Variant, insts uint64, seed int64) string {
	return fmt.Sprintf(`{"bench":%q,"scheme":%q,"insts":%d,"seed":%d}`, bench, v.String(), insts, seed)
}

// matrixBodies is every benchmark x every scheme at one budget and seed.
func matrixBodies(insts uint64, seed int64) []string {
	var cells []string
	for _, w := range workload.All() {
		for _, v := range core.Variants() {
			cells = append(cells, cellBody(w.Name, v, insts, seed))
		}
	}
	return cells
}

// fanOut calls do(i) for every i in [0, n) on conc goroutines and
// returns the results in index order.
func fanOut[T any](n, conc int, do func(i int) T) []T {
	out := make([]T, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// runBench drives an identical cell set through every target at once —
// the worst case for a shared cache: each unique cell is requested
// from all nodes together — then hammers hot iterations, fires the
// dedup burst, optionally runs the batched phase, writes the report
// and checks the gates. With no targets it boots one in-process
// psbserved. Returns the process exit code.
func runBench(o options) int {
	if len(o.targets) == 0 {
		cfg := sim.Default()
		cfg.MaxInsts = o.insts
		cfg.Seed = o.seed
		cfg.TraceMode = sim.TraceMemory
		base, srv, stop, err := serveLocal(serve.Config{Base: cfg, Workers: o.workers, CacheDir: o.cacheDir})
		if err != nil {
			fmt.Fprintln(o.stderr, err)
			return 1
		}
		defer stop()
		fmt.Fprintf(o.stderr, "psbload: in-process server on %s (workers=%d)\n", base, srv.Stats().Queue.Workers)
		o.targets = []string{base}
	}
	ctx := context.Background()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.concurrency}}
	nT := len(o.targets)
	snapshot := func() []serve.ServerStats {
		st := make([]serve.ServerStats, nT)
		for i, t := range o.targets {
			st[i] = fetchStats(client, t)
		}
		return st
	}
	simsSince := func(before, after []serve.ServerStats) uint64 {
		var n uint64
		for i := range after {
			n += after[i].Cells.Sim - before[i].Cells.Sim
		}
		return n
	}

	cells := matrixBodies(o.insts, o.seed)
	before := snapshot()
	// One wave posts every cell to every target, all pairs in flight
	// together under the concurrency bound; sample c*nT+t is cell c
	// from target t.
	wave := func() []sample {
		return fanOut(len(cells)*nT, o.concurrency, func(i int) sample {
			return simSample(post(ctx, client, o.targets[i%nT]+"/v1/sim", "", cells[i/nT]))
		})
	}
	cold := wave()
	hotStart := time.Now()
	hot := make([][]sample, o.hotIters)
	for i := range hot {
		hot[i] = wave()
	}
	hotElapsed := time.Since(hotStart)
	mid := snapshot()

	// The dedup burst: -concurrency identical requests in flight
	// together across the targets, for one cell whose seed no wave or
	// batched phase of a run at a nearby -seed uses, so it is uncached.
	burstBody := cellBody(workload.All()[0].Name, core.Variants()[0], o.insts, o.seed+2000)
	burst := fanOut(o.concurrency, o.concurrency, func(i int) sample {
		return simSample(post(ctx, client, o.targets[i%nT]+"/v1/sim", "", burstBody))
	})
	afterBurst := snapshot()

	// Byte identity: within each cell, every node's response in every
	// wave must hash identically to the cold reference (node 0's); every
	// burst response must hash like the first.
	mismatches := 0
	check := func(s sample, ref [sha256.Size]byte) {
		if s.status == http.StatusOK && s.hash != ref {
			mismatches++
		}
	}
	for i, s := range cold {
		ref := cold[i-i%nT].hash
		check(s, ref)
		for _, w := range hot {
			check(w[i], ref)
		}
	}
	for _, s := range burst {
		check(s, burst[0].hash)
	}

	r := report{
		Targets:        o.targets,
		Cells:          len(cells),
		Concurrency:    o.concurrency,
		HotIters:       o.hotIters,
		InstsPerSim:    o.insts,
		DedupRequests:  len(burst),
		DedupSims:      simsSince(mid, afterBurst),
		ByteMismatches: mismatches,
	}
	totalRequests := 0
	var allCold, allHot []time.Duration
	for t := 0; t < nT; t++ {
		var coldLat, hotLat []time.Duration
		tiers := map[string]int{}
		errs := 0
		collect := func(s sample, lat *[]time.Duration) {
			*lat = append(*lat, s.latency)
			tiers[s.tier]++
			if s.status != http.StatusOK {
				errs++
			}
		}
		for c := range cells {
			collect(cold[c*nT+t], &coldLat)
			for _, w := range hot {
				collect(w[c*nT+t], &hotLat)
			}
		}
		requests := len(coldLat) + len(hotLat)
		sims := mid[t].Cells.Sim - before[t].Cells.Sim
		nr := nodeReport{
			URL:        o.targets[t],
			Requests:   requests,
			Errors:     errs,
			ColdP50Us:  us(percentile(coldLat, 0.50)),
			ColdP99Us:  us(percentile(coldLat, 0.99)),
			HotP50Us:   us(percentile(hotLat, 0.50)),
			HotP99Us:   us(percentile(hotLat, 0.99)),
			TierCounts: tiers,
			Sims:       sims,
		}
		if requests > 0 {
			nr.HitRate = 1 - float64(sims)/float64(requests)
		}
		if p := mid[t].Peer; p != nil {
			nr.PeerFills, nr.PeerServed, nr.PeerFallbacks = p.Fills, p.Served, p.Fallbacks
			if b := before[t].Peer; b != nil {
				nr.PeerFills -= b.Fills
				nr.PeerServed -= b.Served
				nr.PeerFallbacks -= b.Fallbacks
			}
		}
		r.Nodes = append(r.Nodes, nr)
		r.Errors += errs
		totalRequests += requests
		allCold = append(allCold, coldLat...)
		allHot = append(allHot, hotLat...)
	}
	for _, s := range burst {
		if s.status != http.StatusOK {
			r.Errors++
		}
	}
	r.ColdP50Us, r.HotP50Us = us(percentile(allCold, 0.50)), us(percentile(allHot, 0.50))
	if r.HotP50Us > 0 {
		r.SpeedupHot = r.ColdP50Us / r.HotP50Us
	}
	r.HotRPS = float64(len(cells)*nT*o.hotIters) / hotElapsed.Seconds()
	r.ClusterSims = simsSince(before, afterBurst)
	uniqueCells := len(cells) + 1
	totalRequests += len(burst)

	if o.batchSize > 0 {
		br, batchErrs := runBatchedPhase(ctx, client, o, afterBurst)
		if r.HotRPS > 0 {
			br.SpeedupVsPerCell = br.HotCellsPerSec / r.HotRPS
		}
		r.Batch = br
		r.Errors += batchErrs
		r.ClusterSims += br.Sims
		uniqueCells += br.Cells
		// The differential singles count as one request-cell each.
		totalRequests += br.Cells*nT*(1+o.hotIters) + br.Cells
	}
	r.SimsPerCell = float64(r.ClusterSims) / float64(uniqueCells)
	r.ClusterHitRate = 1 - float64(r.ClusterSims)/float64(totalRequests)

	if err := writeReport(o, r); err != nil {
		fmt.Fprintln(o.stderr, err)
		return 1
	}
	fmt.Fprintf(o.stderr,
		"psbload: %d cells x %d nodes, cold p50 %.0fus, hot p50 %.0fus (%.0fx), %.0f hot req/s, dedup %d->%d sims, "+
			"%d sims fleet-wide (%.2f/cell), hit rate %.3f, %d byte mismatches, %d errors\n",
		r.Cells, nT, r.ColdP50Us, r.HotP50Us, r.SpeedupHot, r.HotRPS, r.DedupRequests, r.DedupSims,
		r.ClusterSims, r.SimsPerCell, r.ClusterHitRate, r.ByteMismatches, r.Errors)
	if b := r.Batch; b != nil {
		fmt.Fprintf(o.stderr,
			"psbload: batched: %d cells in %d batches, %d peer RPCs (%d postings), hot %.0f cells/s (%.1fx per-cell), %d byte mismatches\n",
			b.Cells, b.Batches, b.PeerBatchRPCs, b.BatchesPosted, b.HotCellsPerSec, b.SpeedupVsPerCell, b.ByteMismatches)
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(o.stderr, "psbload: GATE FAILED: "+format+"\n", args...)
		return 1
	}
	switch {
	case r.Errors > 0:
		return fail("%d requests failed", r.Errors)
	case r.ByteMismatches > 0:
		return fail("%d responses diverged from the reference bytes", r.ByteMismatches)
	case r.Batch != nil && r.Batch.ByteMismatches > 0:
		return fail("%d batched cells diverged from their per-cell bytes", r.Batch.ByteMismatches)
	case o.gateDedup && r.ClusterSims != uint64(uniqueCells):
		return fail("-gate-dedup: ran %d sims for %d unique cells, want exactly one each", r.ClusterSims, uniqueCells)
	case o.maxSims >= 0 && r.ClusterSims > uint64(o.maxSims):
		return fail("-max-sims: ran %d sims, budget was %d", r.ClusterSims, o.maxSims)
	case o.minHitRate >= 0 && r.ClusterHitRate < o.minHitRate:
		return fail("-min-hit-rate: hit rate %.3f below the %.3f floor", r.ClusterHitRate, o.minHitRate)
	case o.gateBatchRPCs && r.Batch != nil && r.Batch.PeerBatchRPCs > uint64(r.Batch.BatchesPosted*(nT-1)):
		return fail("-gate-batch-rpcs: batched phase cost %d peer RPCs for %d postings; budget is %d (one per remote owner)",
			r.Batch.PeerBatchRPCs, r.Batch.BatchesPosted, r.Batch.BatchesPosted*(nT-1))
	}
	return 0
}

// batchPost is one /v1/batch posting's measurement: wall time plus the
// canonical hash of every returned cell.
type batchPost struct {
	latency time.Duration
	status  int
	hashes  [][sha256.Size]byte
	errs    int
}

// batchOf reduces a /v1/batch reply. With verify it decodes the
// response and hashes each cell's canonical rendering for the
// differential check; without, it leaves the body undecoded so timed
// hot waves measure serving, not client decoding.
func batchOf(r reply, verify bool) batchPost {
	out := batchPost{latency: r.latency, status: r.status}
	if r.status != http.StatusOK {
		out.errs = 1
		return out
	}
	if !verify {
		return out
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(r.body, &br); err != nil {
		out.errs = 1
		return out
	}
	for _, c := range br.Cells {
		if c.Error != "" || c.Result == nil {
			out.errs++
			out.hashes = append(out.hashes, [sha256.Size]byte{})
			continue
		}
		out.hashes = append(out.hashes, sha256.Sum256(results.Encode(*c.Result)))
	}
	return out
}

// runBatchedPhase drives a fresh (cold) cell set through /v1/batch
// from every node at once: the cold wave fans each batch out to its
// owners (concurrent cross-node fills coalesce to one simulation per
// cell), hot waves re-post every batch everywhere, and a final
// differential pass re-fetches every cell through /v1/sim to prove
// the batched bytes identical. mid is the /v1/stats snapshot taken
// just before this phase; the report's counters are deltas against it.
func runBatchedPhase(ctx context.Context, client *http.Client, o options, mid []serve.ServerStats) (*batchReport, int) {
	nT := len(o.targets)
	singles := matrixBodies(o.insts, o.seed+1000)
	var batches []string
	for i := 0; i < len(singles); i += o.batchSize {
		end := min(i+o.batchSize, len(singles))
		batches = append(batches, fmt.Sprintf(`{"jobs":[%s]}`, strings.Join(singles[i:end], ",")))
	}

	// One wave posts every batch to every target, all pairs in flight
	// together under the concurrency bound — the same shape as the
	// per-cell wave, so the throughput comparison is apples to apples.
	// The cold wave's concurrent cross-node postings also exercise the
	// cluster singleflight: every ingress node fills the same cells at
	// once and the owner simulates each exactly once. Posting b*nT+t is
	// batch b to target t.
	wave := func(verify bool) []batchPost {
		return fanOut(len(batches)*nT, o.concurrency, func(i int) batchPost {
			return batchOf(post(ctx, client, o.targets[i%nT]+"/v1/batch", "", batches[i/nT]), verify)
		})
	}

	errs := 0
	mismatches := 0
	cold := wave(true)
	// Within each batch, every node's rendering of every cell must hash
	// identically to the cold reference (node 0's). Hot waves skip the
	// per-cell decode (verify=false) so their timing measures serving;
	// identity on the hot path is what the differential pass proves.
	check := func(w []batchPost, lat *[]time.Duration) {
		for i, p := range w {
			errs += p.errs
			*lat = append(*lat, p.latency)
			ref := cold[i-i%nT].hashes
			if p.status != http.StatusOK || p.hashes == nil || len(p.hashes) != len(ref) {
				continue
			}
			for k := range p.hashes {
				if p.hashes[k] != ref[k] {
					mismatches++
				}
			}
		}
	}
	var coldLat, hotLat []time.Duration
	check(cold, &coldLat)
	hotStart := time.Now()
	for i := 0; i < o.hotIters; i++ {
		check(wave(false), &hotLat)
	}
	hotElapsed := time.Since(hotStart)

	// Differential: every batched cell re-fetched per-cell (hot now)
	// must hash identically to the batch's canonical rendering.
	for c := range singles {
		ref := cold[c/o.batchSize*nT].hashes
		k := c % o.batchSize
		if len(ref) <= k {
			continue // the batch itself failed; already counted
		}
		s := simSample(post(ctx, client, o.targets[c%nT]+"/v1/sim", "", singles[c]))
		if s.status != http.StatusOK {
			errs++
			continue
		}
		if s.hash != ref[k] {
			mismatches++
		}
	}

	br := &batchReport{
		BatchSize:      o.batchSize,
		Batches:        len(batches),
		BatchesPosted:  len(batches) * nT * (1 + o.hotIters),
		Cells:          len(singles),
		ColdP50Us:      us(percentile(coldLat, 0.50)),
		ColdP95Us:      us(percentile(coldLat, 0.95)),
		HotP50Us:       us(percentile(hotLat, 0.50)),
		HotP95Us:       us(percentile(hotLat, 0.95)),
		ByteMismatches: mismatches,
	}
	if o.hotIters > 0 && hotElapsed > 0 {
		br.HotCellsPerSec = float64(len(singles)*nT*o.hotIters) / hotElapsed.Seconds()
	}
	for i, t := range o.targets {
		final := fetchStats(client, t)
		br.Sims += final.Cells.Sim - mid[i].Cells.Sim
		if final.Peer == nil {
			continue
		}
		br.PeerBatchRPCs += final.Peer.BatchRPCs
		br.PeerBatchCells += final.Peer.BatchCells
		br.CoalescedFills += final.Peer.Coalesced
		br.WarmPushSent += final.Peer.WarmPushSent
		if mid[i].Peer != nil {
			br.PeerBatchRPCs -= mid[i].Peer.BatchRPCs
			br.PeerBatchCells -= mid[i].Peer.BatchCells
			br.CoalescedFills -= mid[i].Peer.Coalesced
			br.WarmPushSent -= mid[i].Peer.WarmPushSent
		}
	}
	return br, errs
}
