// Command psbserved is the simulation daemon: an HTTP/JSON front end
// over the simulator with a fingerprint-keyed result cache and
// singleflight deduplication, so repeated and concurrent identical
// requests cost one simulation.
//
// Usage:
//
//	psbserved -addr :8724
//	psbserved -addr :8724 -workers -1 -cache-dir results/ -trace-dir traces/
//	psbserved -tenant-rate 100 -tenant-weight gold=4 -log-requests
//	psbserved -faults 'seed=7,sim-panic=0.1,disk-corrupt=0.05,for=30s'   # chaos testing
//	psbserved -pprof localhost:6060      # profiling side listener (GET /debug/pprof/*)
//	psbserved -addr :8724 -advertise host1:8724 \
//	    -peers host1:8724,host2:8724,host3:8724                          # cluster member
//
// Endpoints:
//
//	GET  /healthz       health: liveness + cache-tier state + degraded flag + cluster view
//	GET  /metrics       the same counters in Prometheus text format
//	GET  /v1/stats      cache / queue / dedup / tenant / fault / peer counters
//	POST /v1/sim        one cell; body {"bench":"health","scheme":"ConfAlloc-Priority"}
//	POST /v1/batch      many cells; body {"jobs":[...]}
//	POST /v1/artifact   a named table or figure; body {"name":"fig5"}
//	POST /v1/peer/batch peer cache-fill, one RPC per owner per request (cluster members only)
//	POST /v1/peer/warm  successor warm-push replication (cluster members only)
//
// With -peers, every node places the full membership on a consistent-
// hash ring (sha256 over the job fingerprint, -replicas virtual nodes
// per member). A node receiving a cell it does not own forwards it to
// the owner and caches the returned bytes, so each unique cell costs
// one simulation cluster-wide no matter which node the request lands
// on. Fills scatter-gather: a request's cells are grouped by owner and
// travel in one /v1/peer/batch RPC per owner (a single /v1/sim cell is
// a batch of one), with concurrent fills for the same fingerprint
// coalesced node-wide. After a cold simulation the entry is also
// warm-pushed, best-effort, to the fingerprint's next ring successor
// (-warm-push-queue bounds the replication queue) so failover lands
// on a warm cache. A dead owner (probes and forwards
// fail) is routed around: the receiving node simulates locally and the
// cluster degrades to independent nodes rather than failing requests.
//
// Responses from /v1/sim are byte-identical to `psbsim -json` for the
// same cell, whether simulated, deduplicated or cache-served (the
// X-Psb-Cache header says which). Overload is signalled with 429 +
// Retry-After computed from live queue depth and drain rate. Tenants
// are identified by the X-Psb-Api-Key header: each gets a token-bucket
// rate limit (-tenant-rate/-tenant-burst) and a weighted-fair share of
// the simulation workers (-tenant-weight), so one tenant's burst
// cannot starve the rest. The disk cache tier checksums every entry,
// quarantines corruption, and demotes itself to memory-only (degraded
// /healthz, still serving) under persistent I/O failure, re-probing
// every -heal-interval. SIGINT/SIGTERM drain gracefully: the listener
// stops accepting, in-flight requests finish, then the workers exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -pprof side listener's mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	var (
		addr         = flag.String("addr", ":8724", "listen address")
		workers      = flag.Int("workers", -1, "simulation concurrency: N workers, -1 = all cores")
		queueCap     = flag.Int("queue", 0, "admission queue capacity (0 = 4*workers+64)")
		cacheEntries = flag.Int("cache-entries", 0, "in-memory result cache entries (0 = 4096)")
		cacheDir     = flag.String("cache-dir", "", "result store directory for the on-disk tier, shared with psbtables -cache-dir (empty = memory only)")
		insts        = flag.Uint64("insts", 500_000, "default instruction budget (requests may override)")
		seed         = flag.Int64("seed", 1, "default workload layout seed (requests may override)")
		traceFlag    = flag.String("trace", "memory", "instruction stream source: off, memory, disk (see psbsim -trace)")
		traceDir     = flag.String("trace-dir", "", "directory for .psbtrace recordings (implies -trace disk)")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "wall-clock budget per simulation attempt (0 = unlimited)")
		retries      = flag.Int("retries", 1, "re-runs allowed per cell after a panic or timeout")
		drainWait    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget before in-flight requests are cut")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant token-bucket rate in cells/sec (0 = unlimited)")
		tenantBurst  = flag.Float64("tenant-burst", 0, "per-tenant burst allowance in cells (0 = max(8, 2*rate))")
		healEvery    = flag.Duration("heal-interval", 2*time.Second, "how often a demoted disk cache tier is re-probed for recovery")
		logRequests  = flag.Bool("log-requests", false, "emit one JSON line per request to stderr (fingerprint, tenant, tier, latency, outcome)")
		peers        = flag.String("peers", "", "comma-separated cluster membership (host:port, self included); empty = standalone")
		advertise    = flag.String("advertise", "", "this node's address as it appears in -peers (required with -peers)")
		replicas     = flag.Int("replicas", 0, "virtual nodes per member on the hash ring (0 = 128); every member must agree")
		warmQueue    = flag.Int("warm-push-queue", 256, "successor warm-push queue depth (cluster mode; 0 disables)")
		quarCap      = flag.Int64("quarantine-cap", 0, "byte budget for the disk-cache quarantine directory (0 = 64 MiB)")
		faultSpec    = flag.String("faults", os.Getenv("PSB_FAULTS"),
			"DANGEROUS: arm deterministic fault injection, e.g. 'seed=7,sim-panic=0.1,disk-corrupt=0.05,for=30s' (default from PSB_FAULTS)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); keep it off the public listener")
	)
	weights := map[string]float64{}
	flag.Func("tenant-weight", "fair-queue weight for one API key as key=weight (repeatable; default 1)", func(v string) error {
		key, val, ok := strings.Cut(v, "=")
		if !ok || key == "" {
			return fmt.Errorf("want key=weight, got %q", v)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return fmt.Errorf("weight %q is not a positive number", val)
		}
		weights[key] = w
		return nil
	})
	flag.Parse()

	cfg := sim.Default()
	cfg.MaxInsts = *insts
	cfg.Seed = *seed
	traceMode, err := sim.ParseTraceFlags(*traceFlag, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.TraceMode = traceMode
	cfg.TraceDir = *traceDir
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "invalid base configuration: %v\n", err)
		os.Exit(2)
	}
	faults, err := serve.ParseFaultPlan(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var cl *cluster.Cluster
	if *peers != "" {
		cl, err = cluster.New(cluster.Config{
			Self:   *advertise,
			Peers:  strings.Split(*peers, ","),
			VNodes: *replicas,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var reqLog *os.File
	if *logRequests {
		reqLog = os.Stderr
	}
	s := serve.New(serve.Config{
		Base:         cfg,
		Workers:      *workers,
		QueueCap:     *queueCap,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		JobTimeout:   *jobTimeout,
		Retries:      *retries,
		Tenant: serve.TenantPolicy{
			Rate:    *tenantRate,
			Burst:   *tenantBurst,
			Weights: weights,
		},
		Faults:           faults,
		EventLog:         os.Stderr,
		RequestLog:       logFile(reqLog),
		HealInterval:     *healEvery,
		QuarantineBudget: *quarCap,
		Cluster:          cl,
		WarmPushQueue:    warmPushConfig(*warmQueue),
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	if *pprofAddr != "" {
		// A private mux: the default ServeMux is what net/http/pprof
		// registers its handlers on, and this listener serves nothing
		// else — the public API mux never exposes /debug/pprof/*.
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux}
		go func() {
			fmt.Fprintf(os.Stderr, "psbserved: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "psbserved: pprof listener: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "psbserved: draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	if !faults.Zero() {
		fmt.Fprintf(os.Stderr, "psbserved: FAULT INJECTION ARMED (%s) — do not run in production\n", faults)
	}
	fmt.Fprintf(os.Stderr, "psbserved: listening on %s (workers=%d queue=%d cache=%s)\n",
		*addr, s.Stats().Queue.Workers, s.Stats().Queue.Capacity, cacheLabel(*cacheDir))
	if cl != nil {
		fmt.Fprintf(os.Stderr, "psbserved: cluster member %s of %v (%d vnodes)\n",
			cl.Self(), cl.Ring().Nodes(), cl.Ring().VNodes())
	}
	err = httpSrv.ListenAndServe()
	// Shutdown finished or the listener failed; either way release the
	// simulation workers before exiting.
	s.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "psbserved: stopped")
}

// logFile converts a possibly-nil *os.File into the io.Writer the
// serve config wants (a typed-nil *os.File inside a non-nil interface
// would defeat the nil check).
func logFile(f *os.File) interface {
	Write([]byte) (int, error)
} {
	if f == nil {
		return nil
	}
	return f
}

// warmPushConfig maps the flag's "0 disables" convention onto the
// serve config's "negative disables, 0 selects the default".
func warmPushConfig(depth int) int {
	if depth <= 0 {
		return -1
	}
	return depth
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory"
	}
	return "memory+" + dir
}
