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
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -pprof side listener's mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, serves until SIGINT or SIGTERM has drained the
// listener and returns the exit status. psbserved writes nothing to
// stdout; its log lines go to stderr.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8724", "listen address")
		workers      = fs.Int("workers", -1, "simulation concurrency: N workers, -1 = all cores")
		queueCap     = fs.Int("queue", 0, "admission queue capacity (0 = 4*workers+64)")
		cacheEntries = fs.Int("cache-entries", 0, "in-memory result cache entries (0 = 4096)")
		cacheDir     = fs.String("cache-dir", "", "result store directory for the on-disk tier, shared with psbtables -cache-dir (empty = memory only)")
		drainWait    = fs.Duration("drain", 30*time.Second, "graceful shutdown budget before in-flight requests are cut")
		tenantRate   = fs.Float64("tenant-rate", 0, "per-tenant token-bucket rate in cells/sec (0 = unlimited)")
		tenantBurst  = fs.Float64("tenant-burst", 0, "per-tenant burst allowance in cells (0 = max(8, 2*rate))")
		healEvery    = fs.Duration("heal-interval", 2*time.Second, "how often a demoted disk cache tier is re-probed for recovery")
		logRequests  = fs.Bool("log-requests", false, "emit one JSON line per request to stderr (fingerprint, tenant, tier, latency, outcome)")
		peers        = fs.String("peers", "", "comma-separated cluster membership (host:port, self included); empty = standalone")
		advertise    = fs.String("advertise", "", "this node's address as it appears in -peers (required with -peers)")
		replicas     = fs.Int("replicas", 0, "virtual nodes per member on the hash ring (0 = 128); every member must agree")
		warmQueue    = fs.Int("warm-push-queue", 256, "successor warm-push queue depth (cluster mode; 0 disables)")
		quarCap      = fs.Int64("quarantine-cap", 0, "byte budget for the disk-cache quarantine directory (0 = 64 MiB)")
		faultSpec    = fs.String("faults", os.Getenv("PSB_FAULTS"),
			"DANGEROUS: arm deterministic fault injection, e.g. 'seed=7,sim-panic=0.1,disk-corrupt=0.05,for=30s' (default from PSB_FAULTS)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); keep it off the public listener")
		// The base configuration requests override field by field.
		shared = cli.BindServe(fs, 5*time.Minute)
	)
	weights := map[string]float64{}
	fs.Func("tenant-weight", "fair-queue weight for one API key as key=weight (repeatable; default 1)", func(v string) error {
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
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	cfg, opts, err := shared.Config(sim.Default())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	faults, err := serve.ParseFaultPlan(*faultSpec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var cl *cluster.Cluster
	if *peers != "" {
		cl, err = cluster.New(cluster.Config{
			Self:   *advertise,
			Peers:  strings.Split(*peers, ","),
			VNodes: *replicas,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	var reqLog io.Writer
	if *logRequests {
		reqLog = stderr
	}
	s := serve.New(serve.Config{
		Base:         cfg,
		Workers:      *workers,
		QueueCap:     *queueCap,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		JobTimeout:   opts.Timeout,
		Retries:      opts.Retries,
		Tenant: serve.TenantPolicy{
			Rate:    *tenantRate,
			Burst:   *tenantBurst,
			Weights: weights,
		},
		Faults:           faults,
		EventLog:         stderr,
		RequestLog:       reqLog,
		HealInterval:     *healEvery,
		QuarantineBudget: *quarCap,
		Cluster:          cl,
		WarmPushQueue:    warmPushConfig(*warmQueue),
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		fmt.Fprintln(stderr, err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler()}

	if *pprofAddr != "" {
		// A private mux: the default ServeMux is what net/http/pprof
		// registers its handlers on, and this listener serves nothing
		// else — the public API mux never exposes /debug/pprof/*.
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux}
		go func() {
			fmt.Fprintf(stderr, "psbserved: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stderr, "psbserved: pprof listener: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if !faults.Zero() {
		fmt.Fprintf(stderr, "psbserved: FAULT INJECTION ARMED (%s) — do not run in production\n", faults)
	}
	fmt.Fprintf(stderr, "psbserved: listening on %s (workers=%d queue=%d cache=%s)\n",
		ln.Addr(), s.Stats().Queue.Workers, s.Stats().Queue.Capacity, cacheLabel(*cacheDir))
	if cl != nil {
		fmt.Fprintf(stderr, "psbserved: cluster member %s of %v (%d vnodes)\n",
			cl.Self(), cl.Ring().Nodes(), cl.Ring().VNodes())
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served:
		// The listener failed before any signal.
		s.Close()
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}
	// Stop accepting, let in-flight requests finish within the drain
	// budget, then release the simulation workers.
	fmt.Fprintln(stderr, "psbserved: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	s.Close()
	if err != nil {
		fmt.Fprintf(stderr, "psbserved: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "psbserved: stopped")
	return 0
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
