package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// handleMetrics renders the node's counters in the Prometheus text
// exposition format (version 0.0.4), so a scrape target is one flag
// away from any dashboard. Everything here is derived from the same
// snapshot /v1/stats serves; the JSON endpoint stays the debugging
// surface, this one is for machines.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder
	mf := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	num := func(v float64) string {
		// Integral values render without exponent or trailing zeros.
		if v == float64(uint64(v)) {
			return fmt.Sprintf("%d", uint64(v))
		}
		return fmt.Sprintf("%g", v)
	}

	mf("psb_uptime_seconds", "gauge", "Seconds since the server started.")
	fmt.Fprintf(&b, "psb_uptime_seconds %s\n", num(st.UptimeSec))
	mf("psb_requests_total", "counter", "HTTP requests received, all endpoints.")
	fmt.Fprintf(&b, "psb_requests_total %d\n", st.Requests)
	mf("psb_degraded", "gauge", "1 when the disk cache tier is demoted to memory-only.")
	fmt.Fprintf(&b, "psb_degraded %d\n", b2i(st.Degraded))

	mf("psb_cells_total", "counter", "Cells served, by result tier.")
	for _, t := range []struct {
		tier string
		n    uint64
	}{
		{"mem", st.Cells.MemHits}, {"disk", st.Cells.DiskHits},
		{"dedup", st.Cells.Dedup}, {"sim", st.Cells.Sim}, {"peer", st.Cells.PeerHits},
	} {
		fmt.Fprintf(&b, "psb_cells_total{tier=%q} %d\n", t.tier, t.n)
	}
	mf("psb_cells_failed_total", "counter", "Cells whose simulation failed.")
	fmt.Fprintf(&b, "psb_cells_failed_total %d\n", st.Cells.Failed)
	mf("psb_cells_rejected_total", "counter", "Cells refused by admission control or rate limiting.")
	fmt.Fprintf(&b, "psb_cells_rejected_total %d\n", st.Cells.Rejected)

	if st.Sampled != nil {
		mf("psb_sampled_cells_total", "counter", "Cells served from the sampled tier (IPC estimate instead of an exact run).")
		fmt.Fprintf(&b, "psb_sampled_cells_total %d\n", st.Sampled.Cells)
		mf("psb_sampled_intervals_total", "counter", "Detailed measurement intervals behind served sampled cells.")
		fmt.Fprintf(&b, "psb_sampled_intervals_total %d\n", st.Sampled.Intervals)
		mf("psb_sampled_last_ci_rel_pct", "gauge", "Relative 95% CI half-width of the most recent estimate, percent.")
		fmt.Fprintf(&b, "psb_sampled_last_ci_rel_pct %s\n", num(st.Sampled.LastCIRelPct))
	}

	mf("psb_cache_entries", "gauge", "In-memory result cache entries.")
	fmt.Fprintf(&b, "psb_cache_entries %d\n", st.Cache.Entries)
	mf("psb_cache_capacity", "gauge", "In-memory result cache capacity.")
	fmt.Fprintf(&b, "psb_cache_capacity %d\n", st.Cache.Capacity)
	mf("psb_cache_hits_total", "counter", "Result cache hits, by tier.")
	fmt.Fprintf(&b, "psb_cache_hits_total{tier=\"mem\"} %d\n", st.Cache.MemHits)
	fmt.Fprintf(&b, "psb_cache_hits_total{tier=\"disk\"} %d\n", st.Cache.DiskHits)
	mf("psb_cache_misses_total", "counter", "Result cache lookups that found nothing.")
	fmt.Fprintf(&b, "psb_cache_misses_total %d\n", st.Cache.Misses)
	mf("psb_cache_evictions_total", "counter", "LRU entries dropped to stay within capacity.")
	fmt.Fprintf(&b, "psb_cache_evictions_total %d\n", st.Cache.Evictions)
	mf("psb_cache_disk_writes_total", "counter", "Results persisted to the disk tier.")
	fmt.Fprintf(&b, "psb_cache_disk_writes_total %d\n", st.Cache.DiskWrites)
	mf("psb_cache_disk_errors_total", "counter", "Disk-tier I/O failures.")
	fmt.Fprintf(&b, "psb_cache_disk_errors_total %d\n", st.Cache.DiskErrors)
	mf("psb_cache_quarantined_total", "counter", "Corrupt disk entries quarantined and re-simulated.")
	fmt.Fprintf(&b, "psb_cache_quarantined_total %d\n", st.Cache.Quarantined)
	mf("psb_cache_quarantine_evicted_total", "counter", "Quarantined files garbage-collected past the byte budget.")
	fmt.Fprintf(&b, "psb_cache_quarantine_evicted_total %d\n", st.Cache.QuarantineEvicted)

	mf("psb_queue_depth", "gauge", "Jobs queued or running in the dispatcher.")
	fmt.Fprintf(&b, "psb_queue_depth %d\n", st.Queue.Inflight)
	mf("psb_queue_capacity", "gauge", "Admission queue capacity.")
	fmt.Fprintf(&b, "psb_queue_capacity %d\n", st.Queue.Capacity)
	mf("psb_queue_workers", "gauge", "Simulation workers.")
	fmt.Fprintf(&b, "psb_queue_workers %d\n", st.Queue.Workers)
	mf("psb_queue_finished_total", "counter", "Jobs the dispatcher completed.")
	fmt.Fprintf(&b, "psb_queue_finished_total %d\n", st.Queue.Finished)
	mf("psb_trace_bytes", "gauge", "Bytes the process's instruction-stream recordings hold: record bytes plus seek marks.")
	fmt.Fprintf(&b, "psb_trace_bytes %d\n", st.Trace.Bytes)
	mf("psb_checkpoint_bytes", "gauge", "Bytes the process's sampling checkpoint store holds: checkpoints, generators (live executors and their states), miss profiles and released cursors.")
	fmt.Fprintf(&b, "psb_checkpoint_bytes %d\n", st.Checkpoints.Bytes)

	if len(st.Tenants) > 0 {
		mf("psb_tenant_completed_total", "counter", "Cells simulated per tenant (fair-queue view).")
		rows := append([]TenantStats(nil), st.Tenants...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })
		for _, t := range rows {
			fmt.Fprintf(&b, "psb_tenant_completed_total{tenant=%q} %d\n", t.Tenant, t.Completed)
		}
		mf("psb_tenant_admitted_total", "counter", "Cells admitted per tenant by the rate limiter.")
		for _, t := range rows {
			fmt.Fprintf(&b, "psb_tenant_admitted_total{tenant=%q} %d\n", t.Tenant, t.Admitted)
		}
		mf("psb_tenant_throttled_total", "counter", "Cells refused per tenant by the rate limiter.")
		for _, t := range rows {
			fmt.Fprintf(&b, "psb_tenant_throttled_total{tenant=%q} %d\n", t.Tenant, t.Throttled)
		}
	}

	if st.Peer != nil {
		mf("psb_peer_fills_total", "counter", "Cells fetched from their owning node instead of simulating.")
		fmt.Fprintf(&b, "psb_peer_fills_total %d\n", st.Peer.Fills)
		mf("psb_peer_fallbacks_total", "counter", "Cells simulated locally because the owner was unreachable or refused.")
		fmt.Fprintf(&b, "psb_peer_fallbacks_total %d\n", st.Peer.Fallbacks)
		mf("psb_peer_served_total", "counter", "Cells answered on behalf of peers via /v1/peer/batch.")
		fmt.Fprintf(&b, "psb_peer_served_total %d\n", st.Peer.Served)
		mf("psb_peer_loop_rejects_total", "counter", "Peer requests refused by the forwarding-loop guard.")
		fmt.Fprintf(&b, "psb_peer_loop_rejects_total %d\n", st.Peer.LoopRejects)
		mf("psb_peer_skew_rejects_total", "counter", "Peer requests refused for fingerprint disagreement (config skew).")
		fmt.Fprintf(&b, "psb_peer_skew_rejects_total %d\n", st.Peer.SkewRejects)
		mf("psb_peer_batch_rpcs_total", "counter", "Outgoing scatter-gather fill RPCs (one per remote owner per batch).")
		fmt.Fprintf(&b, "psb_peer_batch_rpcs_total %d\n", st.Peer.BatchRPCs)
		mf("psb_peer_batch_cells_total", "counter", "Cells carried by outgoing scatter-gather fill RPCs.")
		fmt.Fprintf(&b, "psb_peer_batch_cells_total %d\n", st.Peer.BatchCells)
		mf("psb_peer_coalesced_fills_total", "counter", "Fills that joined an in-flight wire fetch instead of paying their own RPC.")
		fmt.Fprintf(&b, "psb_peer_coalesced_fills_total %d\n", st.Peer.Coalesced)
		mf("psb_warm_push_total", "counter", "Successor warm-push replication events, by outcome.")
		for _, o := range []struct {
			outcome string
			n       uint64
		}{
			{"sent", st.Peer.WarmPushSent}, {"dropped", st.Peer.WarmPushDropped},
			{"failed", st.Peer.WarmPushFailed}, {"received", st.Peer.WarmPushReceived},
			{"rejected", st.Peer.WarmPushRejected},
		} {
			fmt.Fprintf(&b, "psb_warm_push_total{outcome=%q} %d\n", o.outcome, o.n)
		}
	}
	if st.Cluster != nil {
		mf("psb_cluster_forwards_total", "counter", "Forward attempts to peers (retries included).")
		fmt.Fprintf(&b, "psb_cluster_forwards_total %d\n", st.Cluster.Forwards)
		mf("psb_cluster_forward_errors_total", "counter", "Forward attempts that failed at the transport.")
		fmt.Fprintf(&b, "psb_cluster_forward_errors_total %d\n", st.Cluster.ForwardErrors)
		mf("psb_cluster_probes_total", "counter", "Peer health probes sent.")
		fmt.Fprintf(&b, "psb_cluster_probes_total %d\n", st.Cluster.Probes)
		mf("psb_cluster_probe_failures_total", "counter", "Peer health probes that failed.")
		fmt.Fprintf(&b, "psb_cluster_probe_failures_total %d\n", st.Cluster.ProbeFails)
		mf("psb_cluster_peer_up", "gauge", "1 when the peer is presumed reachable.")
		for _, p := range st.Cluster.Peers {
			if p.Self {
				continue
			}
			fmt.Fprintf(&b, "psb_cluster_peer_up{peer=%q} %d\n", p.URL, b2i(p.Alive))
		}
		mf("psb_cluster_peers_alive", "gauge", "Members currently reachable, self included.")
		fmt.Fprintf(&b, "psb_cluster_peers_alive %d\n", st.Cluster.PeersAlive)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
