// Command psbload benchmarks and gates the serving layer. It drives
// psbserved's HTTP API on one node or a cluster: every cell of the
// benchmark x scheme matrix is requested from every node at once (the
// worst case for a shared cache), first cold (simulations and peer
// fills) and then -hot-iters times hot (cache hits), and every node's
// bytes are checked identical for each cell. A dedup burst then sends
// -concurrency identical requests for one uncached cell, spread over
// the nodes, which must cost one simulation. The JSON report records
// per-node latency, hit rate and peer traffic, the fleet-wide
// simulation count, cold over hot p50 (speedup_hot) and the burst's
// cost (dedup_sims). It goes to stdout unless -out names a file.
//
// Usage:
//
//	psbload                                   # one in-process psbserved
//	psbload -targets host:8724                # an already-running node
//	psbload -targets host1:8724,host2:8724,host3:8724 \
//	    -gate-dedup -min-hit-rate 0.9         # a cluster, with CI gates
//	psbload -insts 60000 -concurrency 8 -hot-iters 10 -out report.json
//
// The -gate-dedup, -max-sims and -min-hit-rate flags turn the report
// into a gate. Adding -batch-size N appends a scatter-gather phase: a
// fresh cell set is driven through /v1/batch in N-cell batches (cold
// fan-out, hot waves, then a per-cell differential re-check), and the
// report's "batch" section records per-batch latency, hot cells/sec
// versus the per-cell path, and the peer-RPC counters;
// -gate-batch-rpcs fails the run unless every posted batch cost at
// most one peer RPC per remote owner.
//
// With -chaos it becomes a fault-tolerance harness instead: it arms a
// deterministic fault plan (-chaos-faults) on an in-process node, or
// drives the single node -targets names, with mixed-tenant traffic —
// one greedy tenant, the rest polite — for -chaos-dur, then asserts
// that every byte served matched a direct simulation, no tenant
// starved below half its fair share, p99 stayed under -chaos-p99-max,
// and the node recovered to a non-degraded /healthz within
// -chaos-recovery of the faults clearing.
//
// Exit status: 0 = every gate held, 1 = a gate or invariant failed,
// 2 = flag misuse.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// options holds every flag value plus the output streams.
type options struct {
	targets     []string
	insts       uint64
	seed        int64
	workers     int
	cacheDir    string
	concurrency int
	hotIters    int
	out         string

	// Gates (CI): minHitRate fails the run when the fleet-wide hit
	// rate lands below it (-1 = off); maxSims bounds the fleet-wide
	// simulation count (-1 = off); gateDedup requires exactly one
	// simulation per unique cell.
	minHitRate float64
	maxSims    int64
	gateDedup  bool
	// batchSize > 0 adds a batched phase: a fresh (cold) cell set is
	// driven through /v1/batch in batches this large, measuring the
	// scatter-gather fan-out. gateBatchRPCs fails the run unless every
	// posted batch cost at most one peer RPC per remote owner.
	batchSize     int
	gateBatchRPCs bool

	chaosDur      time.Duration
	chaosTenants  int
	chaosFaults   string
	chaosRate     float64
	chaosRecovery time.Duration
	chaosP99Max   time.Duration

	stdout, stderr io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the benchmark or the chaos harness,
// returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{stdout: stdout, stderr: stderr}
	var targets string
	var chaos bool
	fs.StringVar(&targets, "targets", "", "comma-separated psbserved base URLs (empty = start one in-process server)")
	fs.Uint64Var(&o.insts, "insts", 60_000, "instruction budget per cell")
	fs.Int64Var(&o.seed, "seed", 1, "workload layout seed")
	fs.IntVar(&o.workers, "workers", -1, "in-process server concurrency (-1 = all cores; ignored with -targets)")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "in-process server on-disk result tier (ignored with -targets)")
	fs.IntVar(&o.concurrency, "concurrency", 8, "concurrent client requests, and the dedup burst's size")
	fs.IntVar(&o.hotIters, "hot-iters", 12, "hot passes over the cell set")
	fs.StringVar(&o.out, "out", "", "write the JSON report to this file (empty = stdout)")
	fs.Float64Var(&o.minHitRate, "min-hit-rate", -1, "fail unless the fleet-wide hit rate reaches this (-1 = no gate)")
	fs.Int64Var(&o.maxSims, "max-sims", -1, "fail if the run cost more than this many simulations fleet-wide (-1 = no gate)")
	fs.BoolVar(&o.gateDedup, "gate-dedup", false, "fail unless the run cost exactly one simulation per unique cell fleet-wide")
	fs.IntVar(&o.batchSize, "batch-size", 0, "also drive /v1/batch with fresh cells in batches this large (0 = skip the batched phase)")
	fs.BoolVar(&o.gateBatchRPCs, "gate-batch-rpcs", false, "fail unless every posted batch cost at most one peer RPC per remote owner")
	fs.BoolVar(&chaos, "chaos", false, "run the chaos harness instead of the benchmark")
	fs.DurationVar(&o.chaosDur, "chaos-dur", 12*time.Second, "chaos: traffic window length")
	fs.IntVar(&o.chaosTenants, "chaos-tenants", 4, "chaos: tenant count (tenant-0 is greedy)")
	fs.StringVar(&o.chaosFaults, "chaos-faults",
		"seed=7,sim-panic=0.1,disk-corrupt=0.05,disk-fail=0.35,disk-delay=1ms",
		"chaos: fault plan for the in-process server (ignored with -targets; arm the daemon with -faults '...,for=...' instead)")
	fs.Float64Var(&o.chaosRate, "chaos-rate", 300, "chaos: per-tenant token-bucket rate for the in-process server (cells/sec, 0 = unlimited)")
	fs.DurationVar(&o.chaosRecovery, "chaos-recovery", 20*time.Second, "chaos: how long the node gets to return to non-degraded health")
	fs.DurationVar(&o.chaosP99Max, "chaos-p99-max", 10*time.Second, "chaos: upper bound on successful-request p99")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			if !strings.Contains(t, "://") {
				t = "http://" + t
			}
			o.targets = append(o.targets, t)
		}
	}
	if o.concurrency < 1 {
		fmt.Fprintln(stderr, "-concurrency must be at least 1")
		return 2
	}
	if chaos {
		if len(o.targets) > 1 {
			fmt.Fprintln(stderr, "-chaos drives one node: give -targets at most one URL")
			return 2
		}
		return runChaos(o)
	}
	return runBench(o)
}

// serveLocal starts an in-process psbserved on a loopback port and
// returns its base URL, the server and a function that stops both.
func serveLocal(cfg serve.Config) (string, *serve.Server, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := serve.New(cfg)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), srv, func() {
		hs.Close()
		srv.Close()
	}, nil
}

// reply is one POST's outcome once any 429s have been waited out.
type reply struct {
	status    int    // 0 on a transport error
	tier      string // X-Psb-Cache: sim, dedup, mem, disk, peer
	body      []byte
	latency   time.Duration // from the first attempt, retry waits included
	throttled int           // 429 answers waited out
}

// post sends body to url as tenant ("" = none). A 429 is retried after
// the server's Retry-After hint, capped at 300ms so a load generator
// keeps the server busy, until another answer arrives or ctx ends
// (then the reply carries the 429). The waits count into the latency,
// as a real client would experience them.
func post(ctx context.Context, client *http.Client, url, tenant, body string) reply {
	start := time.Now()
	var r reply
	for {
		req, err := http.NewRequest("POST", url, strings.NewReader(body))
		if err != nil {
			r.latency = time.Since(start)
			return r
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(serve.TenantHeader, tenant)
		}
		resp, err := client.Do(req)
		if err != nil {
			r.latency = time.Since(start)
			return r
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status, r.tier, r.body = resp.StatusCode, resp.Header.Get("X-Psb-Cache"), b
		if err != nil {
			r.status = 0
		}
		if r.status != http.StatusTooManyRequests {
			r.latency = time.Since(start)
			return r
		}
		r.throttled++
		select {
		case <-ctx.Done():
			r.latency = time.Since(start)
			return r
		case <-time.After(min(retryAfterOf(resp), 300*time.Millisecond)):
		}
	}
}

// retryAfterOf parses the Retry-After hint (seconds), defaulting to
// 200ms.
func retryAfterOf(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 200 * time.Millisecond
}

// fetchStats snapshots /v1/stats.
func fetchStats(client *http.Client, base string) serve.ServerStats {
	var st serve.ServerStats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st
	}
	defer resp.Body.Close()
	json.NewDecoder(resp.Body).Decode(&st)
	return st
}

// percentile returns the q-th percentile of lat (zero when empty).
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

// us renders a duration in microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeReport writes v as indented JSON to -out, or to stdout when
// -out is empty.
func writeReport(o options, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if o.out == "" {
		_, err = o.stdout.Write(b)
		return err
	}
	return os.WriteFile(o.out, b, 0o644)
}
