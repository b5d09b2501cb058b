package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chaosTenantReport is one tenant's outcome.
type chaosTenantReport struct {
	Tenant string `json:"tenant"`
	// Greedy marks the tenant that floods the server (4x the client
	// concurrency of the others).
	Greedy bool `json:"greedy"`
	// Completed counts 200 responses; SimCompleted counts the subset
	// that were cache-busting (unique-seed) cells — the contended
	// resource the fairness invariant is measured on.
	Completed    int     `json:"completed"`
	SimCompleted int     `json:"sim_completed"`
	Throttled    int     `json:"throttled"`
	Errors       int     `json:"errors"`
	P99Ms        float64 `json:"p99_ms"`
}

// chaosReport is the -chaos report schema.
type chaosReport struct {
	Mode        string  `json:"mode"`
	InstsPerSim uint64  `json:"insts_per_sim"`
	Tenants     int     `json:"tenants"`
	DurationSec float64 `json:"duration_sec"`
	FaultSpec   string  `json:"fault_spec"`

	PerTenant      []chaosTenantReport `json:"per_tenant"`
	TotalCompleted int                 `json:"total_completed"`
	TotalSims      int                 `json:"total_sims"`
	Divergence     int                 `json:"divergence"`
	Errors5xx      int                 `json:"errors_5xx"`
	NetErrors      int                 `json:"net_errors"`
	Throttled      int                 `json:"throttled"`
	P50Ms          float64             `json:"p50_ms"`
	P99Ms          float64             `json:"p99_ms"`

	DegradedObserved bool    `json:"degraded_observed"`
	Recovered        bool    `json:"recovered"`
	RecoverySec      float64 `json:"recovery_sec"`

	FaultsInjected     *serve.FaultCounters `json:"faults_injected,omitempty"`
	QuarantinedEntries uint64               `json:"quarantined_entries"`
	FinalPassOK        bool                 `json:"final_pass_ok"`

	Violations []string `json:"violations"`
}

// chaosCell is one precomputed, byte-verifiable cell.
type chaosCell struct {
	body     string
	expected []byte
}

// runChaos drives mixed-tenant traffic against a fault-injected server
// and asserts the robustness invariants: zero byte divergence on
// served results, no tenant starved below half its fair share, bounded
// p99, and recovery to a non-degraded /healthz once faults clear.
// Returns the process exit code.
func runChaos(o options) int {
	// Without -targets the harness arms its own server; a bad plan is
	// flag misuse, refused before the pool is precomputed.
	var plan serve.FaultPlan
	if len(o.targets) == 0 {
		var err error
		if plan, err = serve.ParseFaultPlan(o.chaosFaults); err != nil {
			fmt.Fprintln(o.stderr, err)
			return 2
		}
	}

	// The verifiable cell pool: every workload x two schemes x two
	// seeds, with expected bytes computed by direct sim.RunChecked
	// before any fault is armed.
	baseCfg := sim.Default()
	baseCfg.MaxInsts = o.insts
	baseCfg.TraceMode = sim.TraceMemory
	variants := []core.Variant{core.Variants()[0], core.Variants()[len(core.Variants())-1]}
	var pool []chaosCell
	fmt.Fprintf(o.stderr, "psbload -chaos: precomputing expected results for the verification pool...\n")
	for _, w := range workload.All() {
		for _, v := range variants {
			for _, s := range []int64{o.seed, o.seed + 1} {
				cfg := baseCfg
				cfg.Seed = s
				res, err := sim.RunChecked(context.Background(), w, v, cfg)
				if err != nil {
					fmt.Fprintf(o.stderr, "precompute %s/%s seed %d: %v\n", w.Name, v, s, err)
					return 1
				}
				pool = append(pool, chaosCell{body: cellBody(w.Name, v, o.insts, s), expected: results.Encode(res)})
			}
		}
	}

	// Self-host a fault-injected server unless -targets names one
	// (started with its own -faults plan, typically with for=<window>).
	var base string
	var srv *serve.Server
	if len(o.targets) == 1 {
		base = o.targets[0]
	} else {
		cacheDir := o.cacheDir
		if cacheDir == "" {
			dir, err := os.MkdirTemp("", "psbchaos")
			if err != nil {
				fmt.Fprintln(o.stderr, err)
				return 1
			}
			defer os.RemoveAll(dir)
			cacheDir = dir
		}
		cfg := baseCfg
		cfg.Seed = o.seed
		var stopServer func()
		var err error
		base, srv, stopServer, err = serveLocal(serve.Config{
			Base:    cfg,
			Workers: o.workers,
			// A small memory tier forces disk reads, so corrupted
			// entries are actually encountered and healed.
			CacheEntries: 16,
			CacheDir:     cacheDir,
			JobTimeout:   time.Minute,
			Retries:      1,
			Tenant:       serve.TenantPolicy{Rate: o.chaosRate},
			Faults:       plan,
			EventLog:     o.stderr,
			HealInterval: 500 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(o.stderr, err)
			return 1
		}
		defer stopServer()
		fmt.Fprintf(o.stderr, "psbload -chaos: in-process fault-injected server on %s (faults %s)\n", base, plan)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}

	// Mixed-tenant traffic: tenant-0 is greedy (8 closed-loop
	// streams), the rest are polite (2 each). Half of each tenant's
	// requests come from the verified pool (byte-checked); the other
	// half are cache-busting unique-seed cells that force simulations,
	// keeping the fair queue contended.
	type tenantState struct {
		name                                    string
		greedy                                  bool
		completed, simCompleted, throttled, err atomic.Int64
		mu                                      sync.Mutex
		latencies                               []time.Duration
	}
	tenants := make([]*tenantState, o.chaosTenants)
	for i := range tenants {
		tenants[i] = &tenantState{name: fmt.Sprintf("tenant-%d", i), greedy: i == 0}
	}
	var divergence, netErrors atomic.Int64
	var degradedObserved atomic.Bool
	traffic, stop := context.WithCancel(context.Background())
	defer stop()

	// Health monitor: watches for the degraded flag during the run.
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-traffic.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
			if h, err := fetchHealth(client, base); err == nil && h.Degraded {
				degradedObserved.Store(true)
			}
		}
	}()

	var churnSeq atomic.Int64
	var trafficWG sync.WaitGroup
	worker := func(ts *tenantState, widx int) {
		defer trafficWG.Done()
		rng := rand.New(rand.NewSource(int64(widx)*7919 + 17))
		for traffic.Err() == nil {
			var body string
			var expected []byte
			verified := rng.Intn(2) == 0
			if verified {
				c := pool[rng.Intn(len(pool))]
				body, expected = c.body, c.expected
			} else {
				w := workload.All()[rng.Intn(len(workload.All()))]
				v := variants[rng.Intn(len(variants))]
				body = cellBody(w.Name, v, o.insts, o.seed+1_000_000+churnSeq.Add(1))
			}
			r := post(traffic, client, base+"/v1/sim", ts.name, body)
			ts.throttled.Add(int64(r.throttled))
			switch r.status {
			case 0:
				netErrors.Add(1)
			case http.StatusOK:
				ts.completed.Add(1)
				if !verified {
					ts.simCompleted.Add(1)
				}
				ts.mu.Lock()
				ts.latencies = append(ts.latencies, r.latency)
				ts.mu.Unlock()
				if verified && !bytes.Equal(r.body, expected) {
					divergence.Add(1)
					fmt.Fprintf(o.stderr, "DIVERGENCE: %s (tenant %s): served bytes differ from direct RunChecked\n",
						body, ts.name)
				}
			case http.StatusTooManyRequests:
				// The traffic window closed while a 429 was waited out.
			default:
				ts.err.Add(1)
			}
		}
	}
	widx := 0
	for _, ts := range tenants {
		conc := 2
		if ts.greedy {
			conc = 8
		}
		for w := 0; w < conc; w++ {
			trafficWG.Add(1)
			go worker(ts, widx)
			widx++
		}
	}

	fmt.Fprintf(o.stderr, "psbload -chaos: driving %d tenants for %s...\n", o.chaosTenants, o.chaosDur)
	time.Sleep(o.chaosDur)
	stop()
	trafficWG.Wait()
	monWG.Wait()

	// Faults off: in-process plans are cleared explicitly; a remote
	// daemon's plan is expected to carry for=<window> and expire on
	// its own.
	if srv != nil {
		srv.Faults().Clear()
	}

	// Recovery: the node must return to a non-degraded /healthz now
	// that faults have stopped.
	ctx := context.Background()
	recoveryStart := time.Now()
	recovered := false
	var recoverySec float64
	for i := 0; time.Since(recoveryStart) < o.chaosRecovery; i++ {
		h, err := fetchHealth(client, base)
		if err == nil && !h.Degraded && !h.FaultsActive {
			recovered = true
			recoverySec = time.Since(recoveryStart).Seconds()
			break
		}
		// Touch the cache so a demoted disk tier gets a chance to
		// probe (healing is driven by traffic, not a background
		// timer). Cycle through the pool: it is larger than the
		// memory tier, so some of these must miss to disk.
		post(ctx, client, base+"/v1/sim", "", pool[i%len(pool)].body)
		time.Sleep(250 * time.Millisecond)
	}

	// Final pass: with faults cleared, every pool cell must serve 200
	// with exactly the precomputed bytes.
	finalOK := true
	for _, c := range pool {
		r := post(ctx, client, base+"/v1/sim", "", c.body)
		if r.status != http.StatusOK || !bytes.Equal(r.body, c.expected) {
			finalOK = false
			fmt.Fprintf(o.stderr, "final pass: %s -> status %d, byte match %v\n",
				c.body, r.status, bytes.Equal(r.body, c.expected))
		}
	}

	stats := fetchStats(client, base)

	// Assemble the report and check invariants.
	r := chaosReport{
		Mode:               "chaos",
		InstsPerSim:        o.insts,
		Tenants:            o.chaosTenants,
		DurationSec:        o.chaosDur.Seconds(),
		FaultSpec:          o.chaosFaults,
		DegradedObserved:   degradedObserved.Load(),
		Recovered:          recovered,
		RecoverySec:        recoverySec,
		QuarantinedEntries: stats.Cache.Quarantined,
		FinalPassOK:        finalOK,
		Violations:         []string{},
	}
	if stats.Faults != nil {
		fc := stats.Faults.Injected
		r.FaultsInjected = &fc
	}
	var allLat []time.Duration
	for _, ts := range tenants {
		r.PerTenant = append(r.PerTenant, chaosTenantReport{
			Tenant:       ts.name,
			Greedy:       ts.greedy,
			Completed:    int(ts.completed.Load()),
			SimCompleted: int(ts.simCompleted.Load()),
			Throttled:    int(ts.throttled.Load()),
			Errors:       int(ts.err.Load()),
			P99Ms:        us(percentile(ts.latencies, 0.99)) / 1e3,
		})
		r.TotalCompleted += int(ts.completed.Load())
		r.TotalSims += int(ts.simCompleted.Load())
		r.Throttled += int(ts.throttled.Load())
		r.Errors5xx += int(ts.err.Load())
		allLat = append(allLat, ts.latencies...)
	}
	r.Divergence = int(divergence.Load())
	r.NetErrors = int(netErrors.Load())
	r.P50Ms = us(percentile(allLat, 0.50)) / 1e3
	r.P99Ms = us(percentile(allLat, 0.99)) / 1e3

	violate := func(format string, args ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
	if r.Divergence > 0 {
		violate("%d served results diverged from direct RunChecked", r.Divergence)
	}
	if !recovered {
		violate("node did not return to non-degraded /healthz within %s of faults clearing", o.chaosRecovery)
	}
	if !finalOK {
		violate("final verification pass failed after faults cleared")
	}
	// Fairness: on the contended resource (simulated cells), every
	// tenant must complete at least half its fair share.
	fair := float64(r.TotalSims) / float64(o.chaosTenants)
	if r.TotalSims >= 2*o.chaosTenants {
		for _, t := range r.PerTenant {
			if float64(t.SimCompleted) < fair/2 {
				violate("tenant %s starved: %d simulated cells vs fair share %.1f", t.Tenant, t.SimCompleted, fair)
			}
		}
	}
	if p99 := time.Duration(r.P99Ms * 1e6); p99 > o.chaosP99Max {
		violate("p99 %.0fms exceeds bound %s", r.P99Ms, o.chaosP99Max)
	}
	if r.FaultsInjected != nil {
		fc := *r.FaultsInjected
		if fc.SimPanics == 0 {
			violate("fault plan armed but no simulation panics were injected (window too short?)")
		}
		if fc.DiskCorrupts == 0 && fc.DiskFails == 0 {
			violate("fault plan armed but no disk faults were injected")
		}
	}

	if err := writeReport(o, r); err != nil {
		fmt.Fprintln(o.stderr, err)
		return 1
	}
	fmt.Fprintf(o.stderr,
		"psbload -chaos: %d completed (%d simulated), %d throttled, %d 5xx, divergence %d, "+
			"p99 %.0fms, degraded seen %v, recovered %v (%.1fs), quarantined %d\n",
		r.TotalCompleted, r.TotalSims, r.Throttled, r.Errors5xx, r.Divergence,
		r.P99Ms, r.DegradedObserved, r.Recovered, r.RecoverySec, r.QuarantinedEntries)
	if len(r.Violations) > 0 {
		for _, v := range r.Violations {
			fmt.Fprintf(o.stderr, "CHAOS INVARIANT VIOLATED: %s\n", v)
		}
		return 1
	}
	fmt.Fprintln(o.stderr, "psbload -chaos: all invariants held")
	return 0
}

// fetchHealth decodes GET /healthz.
func fetchHealth(client *http.Client, base string) (serve.HealthReport, error) {
	var h serve.HealthReport
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}
