package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxBodyBytes bounds request bodies: job descriptions are small; a
// larger body is a client bug or abuse.
const maxBodyBytes = 1 << 20

// maxBatchCells bounds how many cells one batch request may expand to.
const maxBatchCells = 4096

// Config parameterizes a Server.
type Config struct {
	// Base is the default simulation configuration requests override
	// field by field. Its trace mode decides how the server sources
	// instruction streams (TraceMemory keeps recordings warm across
	// requests; a TraceDir persists them).
	Base sim.Config
	// Workers is the simulation concurrency (<= 0 selects one worker
	// per available CPU).
	Workers int
	// QueueCap bounds the submission queue (admission control): once
	// QueueCap jobs are queued or running, fresh simulations are
	// rejected with 429 + Retry-After. <= 0 selects 4 x workers + 64.
	QueueCap int
	// CacheEntries bounds the in-memory result LRU (<= 0 = 4096).
	CacheEntries int
	// CacheDir, when non-empty, enables the on-disk result tier.
	CacheDir string
	// JobTimeout and Retries configure the checked execution path,
	// exactly as the CLI's -job-timeout and -retries flags.
	JobTimeout time.Duration
	Retries    int
	// Tenant configures per-API-key rate limits and fair-queue
	// weights; the zero value disables both.
	Tenant TenantPolicy
	// Faults arms deterministic fault injection (chaos testing); the
	// zero value wires nothing.
	Faults FaultPlan
	// EventLog, when non-nil, receives structured JSON-lines events:
	// cache quarantines, disk-tier demotions and recoveries, fault
	// arming.
	EventLog io.Writer
	// RequestLog, when non-nil, receives one structured JSON line per
	// HTTP request (fingerprint, tenant, tier, latency, outcome).
	RequestLog io.Writer
	// HealInterval is how often a demoted disk tier is re-probed for
	// recovery (<= 0 selects 2s).
	HealInterval time.Duration
	// QuarantineBudget caps the disk-cache quarantine directory in
	// bytes; oldest entries are garbage-collected past it (<= 0
	// selects 64 MiB).
	QuarantineBudget int64
	// Cluster, when non-nil, joins the node to a fleet: fingerprints
	// route to their consistent-hash owner, misses fill from peers,
	// and this node answers /v1/peer/batch for the keys it owns. The
	// server starts the cluster's health prober and closes the
	// cluster on Close.
	Cluster *cluster.Cluster
	// WarmPushQueue bounds the successor warm-push queue (cluster
	// mode only): after a cold simulation the encoded entry is
	// replicated, best-effort, to the fingerprint's next alive ring
	// successor so failover hits a warm cache. 0 selects 256;
	// negative disables warm-push entirely.
	WarmPushQueue int
}

// Server is the simulation service: it resolves requests against the
// two-tier result cache, deduplicates concurrent identical requests
// with singleflight, and fans cache misses into a long-lived
// runner.Dispatcher that shares the CLI's retry/timeout/panic-
// isolation machinery. Tenants (API keys) are isolated by token-bucket
// rate limits and weighted fair queueing; the disk cache tier
// self-heals from corruption and demotes to memory-only under
// persistent I/O failure. Construct with New; Close drains the
// workers.
type Server struct {
	base    sim.Config
	opts    runner.Options
	disp    *runner.Dispatcher
	cache   *ResultCache
	flight  flightGroup[runner.CellResult]
	policy  TenantPolicy
	limiter *rateLimiter
	faults  *Injector
	events  *EventLogger
	reqLog  *EventLogger
	cluster *cluster.Cluster

	// ctx governs simulation execution. It is the server's lifetime,
	// not any single request's: a client disconnect must not abort a
	// simulation other waiters (or the cache) will want.
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time

	// simNanos is an EWMA of recent simulation wall time, feeding the
	// Retry-After estimate (queue depth x per-sim cost / workers).
	// peerFillNanos is the analogous EWMA for peer cache fills.
	simNanos      atomic.Uint64
	peerFillNanos atomic.Uint64

	requests                                             atomic.Uint64
	cellsMem, cellsDisk, cellsDedup, cellsSim, cellsPeer atomic.Uint64
	cellsFailed, cellsRejected                           atomic.Uint64

	// Sampled-tier accounting: cells served with an IPC estimate, the
	// measurement intervals behind them, and the most recent relative
	// 95% confidence half-width (stored as Float64bits).
	cellsSampled     atomic.Uint64
	sampledIntervals atomic.Uint64
	sampledLastCI    atomic.Uint64

	// Peer-protocol counters (cluster mode only; see PeerCounters).
	peerFills, peerFallbacks, peerServed atomic.Uint64
	peerLoopRejects, peerSkewRejects     atomic.Uint64

	// Scatter-gather machinery: the cluster-level singleflight over
	// wire fills, batch-RPC accounting, and the warm-push replicator
	// (nil when disabled or standalone).
	peerFlight                    flightGroup[sim.Result]
	peerBatchRPCs, peerBatchCells atomic.Uint64
	warmPush                      *warmPusher
	warmRecv, warmRejected        atomic.Uint64
}

// New starts a server. The caller owns the HTTP listener; Handler
// returns the routing entry point.
func New(cfg Config) *Server {
	workers := runner.New(cfg.Workers).Workers()
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = 4*workers + 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := NewEventLogger(cfg.EventLog)
	faults := NewInjector(cfg.Faults)
	cache := NewResultCache(cfg.CacheEntries, cfg.CacheDir).
		withEvents(events).
		withProbeInterval(cfg.HealInterval).
		withQuarantineBudget(cfg.QuarantineBudget)
	if faults != nil {
		cache.withDisk(faultDisk{in: faults, next: results.OSDisk{}})
		events.Log("faults_armed", map[string]any{"plan": cfg.Faults.String()})
	}
	s := &Server{
		base: cfg.Base,
		opts: runner.Options{
			Timeout:   cfg.JobTimeout,
			Retries:   cfg.Retries,
			FaultHook: faults.SimHook(),
		},
		disp:    runner.NewDispatcher(workers, queueCap),
		cache:   cache,
		policy:  cfg.Tenant,
		limiter: newRateLimiter(cfg.Tenant),
		faults:  faults,
		events:  events,
		reqLog:  NewEventLogger(cfg.RequestLog),
		cluster: cfg.Cluster,
		ctx:     ctx,
		cancel:  cancel,
		start:   time.Now(),
	}
	if s.cluster != nil {
		s.cluster.Start()
		events.Log("cluster_joined", map[string]any{
			"self":  s.cluster.Self(),
			"peers": s.cluster.Ring().Nodes(),
		})
		if cfg.WarmPushQueue >= 0 {
			depth := cfg.WarmPushQueue
			if depth == 0 {
				depth = 256
			}
			s.warmPush = newWarmPusher(depth)
			go s.warmPush.run(s)
		}
	}
	return s
}

// Base returns the server's base simulation configuration.
func (s *Server) Base() sim.Config { return s.base }

// Faults returns the server's fault injector (nil when no plan is
// armed). Chaos harnesses use it to clear faults and assert recovery.
func (s *Server) Faults() *Injector { return s.faults }

// Degraded reports whether the node is running in a degraded mode
// (disk cache tier demoted to memory-only).
func (s *Server) Degraded() bool { return s.cache.Degraded() }

// Close aborts in-flight simulations at their next context check and
// waits for the workers to exit. Call after the HTTP listener has
// drained (http.Server.Shutdown) for a graceful stop, or directly for
// a fast one.
func (s *Server) Close() {
	s.cancel()
	s.disp.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// Handler returns the server's routing entry point.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/artifact", s.handleArtifact)
	mux.HandleFunc("POST /v1/peer/batch", s.handlePeerBatch)
	mux.HandleFunc("POST /v1/peer/warm", s.handlePeerWarm)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.reqLog == nil {
			mux.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(rec, r)
		outcome := "ok"
		if rec.status >= 400 {
			outcome = "error"
		}
		s.reqLog.Log("request", map[string]any{
			"method":      r.Method,
			"path":        r.URL.Path,
			"tenant":      tenantOf(r),
			"status":      rec.status,
			"latency_us":  time.Since(start).Microseconds(),
			"tier":        rec.Header().Get("X-Psb-Cache"),
			"fingerprint": rec.Header().Get("X-Psb-Fingerprint"),
			"outcome":     outcome,
		})
	})
}

// statusRecorder captures the response status for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// cell resolves one job for a tenant: result cache, then singleflight,
// then a weighted-fair dispatcher submit. tier reports where the
// result came from ("mem", "disk", "dedup" or "sim"); err is an
// admission failure (runner.ErrQueueFull / ErrDispatcherClosed), never
// a job failure — those live in cell.Err.
func (s *Server) cell(job runner.Job, tenant string) (cell runner.CellResult, tier string, err error) {
	fp := job.Fingerprint()
	if res, tier, ok := s.cache.Get(fp); ok {
		s.noteServed(tier, res)
		return runner.CellResult{Result: res, Cached: true}, tier, nil
	}
	var simDur time.Duration
	cell, err, shared := s.flight.do(fp, func() (runner.CellResult, error) {
		// Re-check under the flight: a concurrent leader may have
		// populated the cache between our Get and do.
		if res, _, ok := s.cache.peek(fp); ok {
			return runner.CellResult{Result: res, Cached: true}, nil
		}
		if s.faults.DropQueueSlot() {
			return runner.CellResult{}, fmt.Errorf("%w (fault injection)", runner.ErrQueueFull)
		}
		p, err := s.disp.SubmitTenant(s.ctx, job, s.opts, tenant, s.policy.weightOf(tenant))
		if err != nil {
			return runner.CellResult{}, err
		}
		// The job always completes (cancellation fails it fast), so
		// waiting on Background cannot leak.
		start := time.Now()
		cell, _ := p.Wait(context.Background())
		simDur = time.Since(start)
		if cell.OK() {
			s.cache.Put(fp, cell.Result)
			s.maybeWarmPush(job, fp, cell.Result)
		}
		return cell, nil
	})
	switch {
	case err != nil:
		s.cellsRejected.Add(1)
		return cell, "", err
	case shared:
		tier = "dedup"
	case cell.Cached:
		tier = "mem"
	default:
		tier = "sim"
		s.noteSimDuration(simDur)
	}
	s.noteServed(tier, cell.Result)
	if cell.Err != nil {
		s.cellsFailed.Add(1)
	}
	return cell, tier, nil
}

// noteServed counts one served cell under its tier and, when it
// carries a sampled estimate, in the sampled-tier counters. Every
// place that serves a cell calls it, so the two views cannot drift.
func (s *Server) noteServed(tier string, res sim.Result) {
	switch tier {
	case "mem":
		s.cellsMem.Add(1)
	case "disk":
		s.cellsDisk.Add(1)
	case "dedup":
		s.cellsDedup.Add(1)
	case "sim":
		s.cellsSim.Add(1)
	case "peer":
		s.cellsPeer.Add(1)
	}
	if est := res.Sampled; est != nil {
		s.cellsSampled.Add(1)
		s.sampledIntervals.Add(uint64(est.Intervals))
		s.sampledLastCI.Store(math.Float64bits(est.CIRelPct))
	}
}

// noteSimDuration folds one simulation's wall time into the EWMA that
// prices Retry-After.
func (s *Server) noteSimDuration(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := s.simNanos.Load()
		nw := uint64(d)
		if old != 0 {
			nw = (old*7 + uint64(d)) / 8
		}
		if s.simNanos.CompareAndSwap(old, nw) {
			return
		}
	}
}

// retryAfterSec estimates how long until the queue has drained enough
// to admit one more job: queue depth times the recent per-simulation
// cost, divided across the workers. Clamped to [1s, 120s]; before any
// simulation has completed it falls back to 1s.
func (s *Server) retryAfterSec() int {
	avg := s.simNanos.Load()
	if avg == 0 {
		return 1
	}
	depth := float64(s.disp.Inflight() + 1)
	secs := math.Ceil(depth * float64(avg) / float64(s.disp.Workers()) / 1e9)
	if secs < 1 {
		return 1
	}
	if secs > 120 {
		return 120
	}
	return int(secs)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
	w.Write(append(b, '\n'))
}

// overloadBody is the 429/503 response body: the error plus the live
// queue facts a client needs to back off intelligently.
type overloadBody struct {
	Error         string     `json:"error"`
	RetryAfterSec int        `json:"retry_after_sec"`
	Queue         QueueStats `json:"queue"`
}

// writeOverloaded answers 429 with a Retry-After computed from the
// actual queue depth and drain rate, plus current queue stats in the
// body.
func (s *Server) writeOverloaded(w http.ResponseWriter, format string, args ...any) {
	retry := s.retryAfterSec()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	w.WriteHeader(http.StatusTooManyRequests)
	b, _ := json.Marshal(overloadBody{
		Error:         fmt.Sprintf(format, args...),
		RetryAfterSec: retry,
		Queue:         s.queueStats(),
	})
	w.Write(append(b, '\n'))
}

// writeThrottled answers a rate-limited tenant with the bucket's own
// refill time.
func (s *Server) writeThrottled(w http.ResponseWriter, tenant string, wait time.Duration) {
	retry := int(math.Ceil(wait.Seconds()))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	w.WriteHeader(http.StatusTooManyRequests)
	b, _ := json.Marshal(overloadBody{
		Error:         fmt.Sprintf("tenant %q rate limited (%.3g cells/sec)", tenant, s.policy.Rate),
		RetryAfterSec: retry,
		Queue:         s.queueStats(),
	})
	w.Write(append(b, '\n'))
}

// admit charges the tenant's token bucket for cost cells, writing the
// 429 itself on refusal.
func (s *Server) admit(w http.ResponseWriter, tenant string, cost int) bool {
	ok, wait := s.limiter.take(tenant, float64(cost))
	if !ok {
		s.cellsRejected.Add(uint64(cost))
		s.writeThrottled(w, tenant, wait)
	}
	return ok
}

// readBody reads a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	return body, true
}

// writeCellError maps a failed or rejected cell to an HTTP error.
func (s *Server) writeCellError(w http.ResponseWriter, cell runner.CellResult, err error) {
	switch {
	case errors.Is(err, runner.ErrQueueFull):
		s.writeOverloaded(w, "server overloaded: %v", err)
	case errors.Is(err, runner.ErrDispatcherClosed):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		var ce *sim.ConfigError
		if errors.As(cell.Err, &ce) {
			httpError(w, http.StatusBadRequest, "%v", ce)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", cell.Err)
	}
}

// handleSim serves one cell: the response body is the canonical JSON
// rendering of the sim.Result — byte-identical to psbsim -json for the
// same cell, whether it was simulated, deduplicated or cache-served.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeJobRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	jobs, err := req.Jobs(s.base)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(jobs) != 1 {
		httpError(w, http.StatusBadRequest,
			"/v1/sim runs exactly one cell (%d requested); use /v1/batch for fan-out", len(jobs))
		return
	}
	tenant := tenantOf(r)
	if !s.admit(w, tenant, 1) {
		return
	}

	start := time.Now()
	out := s.runAll(jobs, tenant)[0]
	if out.err != nil || out.cell.Err != nil {
		s.writeCellError(w, out.cell, out.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Psb-Cache", out.tier)
	w.Header().Set("X-Psb-Fingerprint", jobs[0].Fingerprint())
	w.Header().Set("X-Psb-Serve-Us", fmt.Sprintf("%d", time.Since(start).Microseconds()))
	w.Write(results.Encode(out.cell.Result))
}

// BatchCell is one cell's outcome in a batch response.
type BatchCell struct {
	Bench       string      `json:"bench"`
	Scheme      string      `json:"scheme"`
	Fingerprint string      `json:"fingerprint"`
	Cache       string      `json:"cache,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
	Error       string      `json:"error,omitempty"`
	// RetryAfterSec prices a queue-rejected cell's retry — the same
	// queue-depth estimate a single-cell 429's Retry-After carries.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// BatchResponse is the response body of POST /v1/batch.
type BatchResponse struct {
	Cells []BatchCell `json:"cells"`
	// RetryAfterSec and Queue appear when admission control refused
	// any cell: the same queue-priced guidance a /v1/sim 429 body
	// carries, so batch clients back off identically.
	RetryAfterSec int         `json:"retry_after_sec,omitempty"`
	Queue         *QueueStats `json:"queue,omitempty"`
}

// handleBatch serves a list of cells, resolving each through the cache
// and fanning the misses across the work pool concurrently. Per-cell
// failures (including per-cell admission rejections) are reported in
// the cell, not as a request failure, mirroring the CLI's partial-
// matrix behavior.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeBatchRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: set \"jobs\"")
		return
	}
	var jobs []runner.Job
	for i, jr := range req.Jobs {
		expanded, err := jr.Jobs(s.base)
		if err != nil {
			httpError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
			return
		}
		jobs = append(jobs, expanded...)
	}
	if len(jobs) > maxBatchCells {
		httpError(w, http.StatusBadRequest, "batch expands to %d cells (max %d)", len(jobs), maxBatchCells)
		return
	}
	tenant := tenantOf(r)
	if !s.admit(w, tenant, len(jobs)) {
		return
	}

	cells := s.runAll(jobs, tenant)
	resp := BatchResponse{Cells: make([]BatchCell, len(jobs))}
	rejected := 0
	retry := 0
	for i, job := range jobs {
		bc := BatchCell{
			Bench:       job.Workload.Name,
			Scheme:      job.Variant.String(),
			Fingerprint: job.Fingerprint(),
			Cache:       cells[i].tier,
		}
		switch {
		case errors.Is(cells[i].err, runner.ErrQueueFull):
			// Queue-priced like the single-cell 429, so batch clients
			// back off with the same guidance.
			if retry == 0 {
				retry = s.retryAfterSec()
			}
			rejected++
			bc.Error = cells[i].err.Error()
			bc.RetryAfterSec = retry
		case cells[i].err != nil:
			bc.Error = cells[i].err.Error()
		case cells[i].cell.Err != nil:
			bc.Error = cells[i].cell.Err.Error()
		default:
			res := cells[i].cell.Result
			bc.Result = &res
		}
		resp.Cells[i] = bc
	}
	if rejected == len(jobs) {
		// Nothing was served: answer exactly like a refused /v1/sim.
		s.writeOverloaded(w, "server overloaded: all %d batch cells rejected (queue full)", rejected)
		return
	}
	if rejected > 0 {
		qs := s.queueStats()
		resp.RetryAfterSec = retry
		resp.Queue = &qs
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(resp, "", "  ")
	w.Write(append(b, '\n'))
}

// batchOutcome pairs a cell with its serving metadata.
type batchOutcome struct {
	cell runner.CellResult
	tier string
	err  error
}

// runAll resolves jobs concurrently on the tenant's queue: /v1/sim (a
// batch of one), /v1/batch and /v1/artifact all serve cells through
// it. Local cache peeks come first. Without a cluster every miss takes
// the plain cell path; in a cluster so do self-owned and inexpressible
// cells, and the rest are grouped by ring owner into single
// /v1/peer/batch calls. Any cell whose fill fails — owner dead,
// per-cell refusal, corrupt payload — falls back to local simulation,
// so a request degrades cell by cell, never whole. The lookup is a
// peek, not a Get: a miss falls through to cell, whose Get counts it,
// so each cell counts one hit or one miss.
func (s *Server) runAll(jobs []runner.Job, tenant string) []batchOutcome {
	out := make([]batchOutcome, len(jobs))
	var wg sync.WaitGroup
	local := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].cell, out[i].tier, out[i].err = s.cell(jobs[i], tenant)
		}()
	}
	groups := make(map[string][]peerBatchItem)
	for i := range jobs {
		fp := jobs[i].Fingerprint()
		if res, tier, ok := s.cache.peek(fp); ok {
			s.noteServed(tier, res)
			out[i] = batchOutcome{cell: runner.CellResult{Result: res, Cached: true}, tier: tier}
			continue
		}
		if s.cluster == nil {
			local(i)
			continue
		}
		owner, self := s.cluster.Owner(fp)
		if self {
			local(i)
			continue
		}
		req, ok := s.peerRequest(jobs[i], fp)
		if !ok {
			local(i)
			continue
		}
		groups[owner] = append(groups[owner], peerBatchItem{idx: i, fp: fp, req: req, job: jobs[i]})
	}
	for owner, items := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.fillOwnerBatch(owner, items, tenant, out)
		}()
	}
	wg.Wait()
	return out
}

// CellRunner adapts the server's cached cell path to the experiment
// drivers' executor contract, so a whole named figure or table runs
// through the result cache: cells already served (by any earlier
// request) cost a cache lookup, and only the rest simulate.
func (s *Server) CellRunner() experiments.CellRunner {
	return s.cellRunnerFor(AnonTenant)
}

// cellRunnerFor is CellRunner on the given tenant's queue.
func (s *Server) cellRunnerFor(tenant string) experiments.CellRunner {
	return func(jobs []runner.Job) []runner.CellResult {
		outcomes := s.runAll(jobs, tenant)
		cells := make([]runner.CellResult, len(jobs))
		for i, o := range outcomes {
			if o.err != nil {
				cells[i] = runner.CellResult{Err: &runner.JobError{
					Workload:    jobs[i].Workload.Name,
					Variant:     jobs[i].Variant,
					Fingerprint: jobs[i].Fingerprint(),
					Err:         o.err,
				}}
				continue
			}
			cells[i] = o.cell
		}
		return cells
	}
}

// handleArtifact regenerates one named table or figure from
// internal/experiments through the cached cell path and returns its
// text (or CSV) rendering.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeArtifactRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	cfg := s.base
	if req.Insts != 0 {
		cfg.MaxInsts = req.Insts
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if err := cfg.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Artifacts expand server-side; charge a flat cell against the
	// tenant's bucket (the fair queue still bounds their service).
	tenant := tenantOf(r)
	if !s.admit(w, tenant, 1) {
		return
	}
	table, err := experiments.Artifact(req.Name, cfg, s.cellRunnerFor(tenant))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.CSV {
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprintf(w, "%s\n%s", table.Title, table.CSV())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, table.String())
}

// HealthReport is the response body of GET /healthz: liveness plus the
// cache-tier health and the node's degraded flag. A degraded node
// still answers 200 — it serves correct results from memory — but
// orchestration can see it and route around.
type HealthReport struct {
	Status       string         `json:"status"` // "ok" or "degraded"
	Degraded     bool           `json:"degraded"`
	UptimeSec    float64        `json:"uptime_sec"`
	Cache        CacheHealth    `json:"cache"`
	Queue        QueueStats     `json:"queue"`
	Cluster      *ClusterHealth `json:"cluster,omitempty"`
	FaultsActive bool           `json:"faults_active,omitempty"`
}

// ClusterHealth is the cluster section of /healthz: this node's
// identity plus how much of the fleet it can currently see. A node
// with zero alive peers still answers 200 — it has degraded to
// independent operation, which serves correct results.
type ClusterHealth struct {
	Self       string `json:"self"`
	PeersAlive int    `json:"peers_alive"`
	PeersTotal int    `json:"peers_total"`
}

// Health snapshots the node's health.
func (s *Server) Health() HealthReport {
	degraded := s.cache.Degraded()
	status := "ok"
	if degraded {
		status = "degraded"
	}
	h := HealthReport{
		Status:       status,
		Degraded:     degraded,
		UptimeSec:    time.Since(s.start).Seconds(),
		Cache:        s.cache.Health(),
		Queue:        s.queueStats(),
		FaultsActive: s.faults.Active(),
	}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		h.Cluster = &ClusterHealth{
			Self:       cs.Self,
			PeersAlive: cs.PeersAlive,
			PeersTotal: len(cs.Peers),
		}
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(s.Health(), "", "  ")
	w.Write(append(b, '\n'))
}

// CellCounters breaks served cells down by where their result came
// from.
type CellCounters struct {
	Total    uint64 `json:"total"`
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Dedup    uint64 `json:"dedup_hits"`
	Sim      uint64 `json:"simulated"`
	// PeerHits counts cells served by fetching the result from the
	// fingerprint's owning node instead of simulating (cluster mode).
	PeerHits uint64 `json:"peer_hits"`
	Failed   uint64 `json:"failed"`
	Rejected uint64 `json:"rejected"`
}

// SampledCounters is the sampled-tier section of /v1/stats: cells
// served with an IPC estimate instead of an exact run.
type SampledCounters struct {
	Cells     uint64 `json:"cells"`
	Intervals uint64 `json:"intervals"`
	// LastCIRelPct is the relative 95% confidence half-width of the
	// most recently served estimate, in percent.
	LastCIRelPct float64 `json:"last_ci_rel_pct"`
}

// QueueStats describes the dispatcher.
type QueueStats struct {
	Workers  int    `json:"workers"`
	Capacity int    `json:"capacity"`
	Inflight int    `json:"inflight"`
	Finished uint64 `json:"finished"`
}

func (s *Server) queueStats() QueueStats {
	return QueueStats{
		Workers:  s.disp.Workers(),
		Capacity: s.disp.QueueCap(),
		Inflight: s.disp.Inflight(),
		Finished: s.disp.Finished(),
	}
}

// FaultStats is the fault-injection section of /v1/stats.
type FaultStats struct {
	Active   bool          `json:"active"`
	Plan     string        `json:"plan,omitempty"`
	Injected FaultCounters `json:"injected"`
}

// ServerStats is the response body of GET /v1/stats.
type ServerStats struct {
	UptimeSec   float64          `json:"uptime_sec"`
	Requests    uint64           `json:"requests"`
	Degraded    bool             `json:"degraded"`
	Cells       CellCounters     `json:"cells"`
	Sampled     *SampledCounters `json:"sampled,omitempty"`
	Cache       CacheStats       `json:"cache"`
	Queue       QueueStats       `json:"queue"`
	Tenants     []TenantStats    `json:"tenants,omitempty"`
	Faults      *FaultStats      `json:"faults,omitempty"`
	Peer        *PeerCounters    `json:"peer,omitempty"`
	Cluster     *cluster.Stats   `json:"cluster,omitempty"`
	Trace       trace.Stats      `json:"trace"`
	Checkpoints sample.Stats     `json:"checkpoints"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	mem, disk, dedup, simd, peer := s.cellsMem.Load(), s.cellsDisk.Load(),
		s.cellsDedup.Load(), s.cellsSim.Load(), s.cellsPeer.Load()
	var faults *FaultStats
	if s.faults != nil {
		faults = &FaultStats{
			Active:   s.faults.Active(),
			Plan:     s.faults.Plan().String(),
			Injected: s.faults.Counters(),
		}
	}
	var clusterStats *cluster.Stats
	if s.cluster != nil {
		cs := s.cluster.Stats()
		clusterStats = &cs
	}
	return ServerStats{
		UptimeSec: time.Since(s.start).Seconds(),
		Requests:  s.requests.Load(),
		Degraded:  s.cache.Degraded(),
		Cells: CellCounters{
			Total:    mem + disk + dedup + simd + peer,
			MemHits:  mem,
			DiskHits: disk,
			Dedup:    dedup,
			Sim:      simd,
			PeerHits: peer,
			Failed:   s.cellsFailed.Load(),
			Rejected: s.cellsRejected.Load(),
		},
		Sampled:     s.sampledCounters(),
		Cache:       s.cache.Stats(),
		Queue:       s.queueStats(),
		Tenants:     s.tenantStats(),
		Faults:      faults,
		Peer:        s.peerCounters(),
		Cluster:     clusterStats,
		Trace:       trace.Shared().Stats(),
		Checkpoints: sample.Shared().Stats(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

// sampledCounters snapshots the sampled tier; nil until the first
// sampled cell is served, keeping exact-only deployments' stats
// output unchanged.
func (s *Server) sampledCounters() *SampledCounters {
	cells := s.cellsSampled.Load()
	if cells == 0 {
		return nil
	}
	return &SampledCounters{
		Cells:        cells,
		Intervals:    s.sampledIntervals.Load(),
		LastCIRelPct: math.Float64frombits(s.sampledLastCI.Load()),
	}
}

// tenantStats merges the dispatcher's scheduling view with the rate
// limiter's admission view.
func (s *Server) tenantStats() []TenantStats {
	disp := s.disp.Tenants()
	rows := make([]TenantStats, 0, len(disp))
	for _, d := range disp {
		name := d.Tenant
		if name == "" {
			name = AnonTenant
		}
		rows = append(rows, TenantStats{
			Tenant:    name,
			Weight:    d.Weight,
			Queued:    d.Queued,
			Completed: d.Completed,
		})
	}
	return mergeTenantStats(rows, s.limiter.snapshot())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(s.Stats(), "", "  ")
	w.Write(append(b, '\n'))
}
