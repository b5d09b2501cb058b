package serve

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The peer-fill protocol rides the existing HTTP surface: a node that
// receives cells it does not own sends them, grouped by owner, to
// POST /v1/peer/batch (peerbatch.go) and caches the returned canonical
// bytes locally — replica fan-out for hot artifacts. A single /v1/sim
// cell travels as a batch of one. Each cell in the body carries the
// caller's fingerprint for it. The owner recomputes its own and
// refuses that cell on mismatch (409): the nodes disagree on the
// cell's identity, which means their base configurations have skewed
// and a shared cache would serve wrong bytes. Two headers complete
// the protocol:
//
//   - PeerHopHeader counts forwarding hops. Ingress requests carry
//     none; a forward sets 1. The peer endpoints never forward, so a
//     higher count can only mean a routing loop (or a spoofer) and is
//     rejected with 508 Loop Detected.
//   - PeerOwnerHeader on responses names the node that answered a
//     forwarded request (diagnostics).
const (
	PeerHopHeader   = "X-Psb-Peer-Hop"
	PeerOwnerHeader = "X-Psb-Owner"
)

// maxPeerHops is the hop budget: ingress forwards once, the owner
// serves locally. Anything beyond is a loop.
const maxPeerHops = 1

// maxPeerResponseBytes bounds a peer batch response body: the canonical
// sim.Result rendering of every cell it carries (the fig4 histogram
// variant is the largest).
const maxPeerResponseBytes = 32 << 20

// peerRequest renders the job as a normalized single-cell JobRequest
// and proves the rendering is faithful: re-expanding it against this
// node's base configuration must reproduce the job's fingerprint.
// Cells the request vocabulary cannot express (a config field only an
// experiment driver sets, a workload outside the registry) report
// !ok and are simulated locally instead of forwarded.
func (s *Server) peerRequest(job runner.Job, fp string) (JobRequest, bool) {
	cfg := job.Config
	seed := cfg.Seed
	req := JobRequest{
		Bench:       job.Workload.Name,
		Scheme:      job.Variant.String(),
		Insts:       cfg.MaxInsts,
		Seed:        &seed,
		L1Size:      cfg.Mem.L1D.SizeBytes,
		L1Ways:      cfg.Mem.L1D.Ways,
		NoDis:       cfg.CPU.Disambiguation == cpu.DisNone,
		CollectFig4: cfg.CollectFig4,
	}
	if cfg.SampleMode == sim.SampleOn {
		req.Sample = true
		req.SamplePeriod = cfg.SamplePeriod
		req.SampleLen = cfg.SampleLen
		req.SampleWarmup = cfg.SampleWarmup
	}
	jobs, err := req.Jobs(s.base)
	if err != nil || len(jobs) != 1 || jobs[0].Fingerprint() != fp {
		return JobRequest{}, false
	}
	return req, true
}

// notePeerFillDuration folds one fill RPC's wall time into its EWMA
// (exposed in stats; a fill should cost a network hop plus the
// owner's tier, far below a local simulation). Callers skip RPCs that
// filled nothing, whose time prices no fill.
func (s *Server) notePeerFillDuration(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := s.peerFillNanos.Load()
		nw := uint64(d)
		if old != 0 {
			nw = (old*7 + uint64(d)) / 8
		}
		if s.peerFillNanos.CompareAndSwap(old, nw) {
			return
		}
	}
}

// PeerCounters is the peer-protocol section of /v1/stats: the
// cluster-cache economy as seen from this node.
type PeerCounters struct {
	// Fills counts cells this node fetched from their owner instead of
	// simulating; Fallbacks counts cells simulated locally because the
	// owner was unreachable or refused.
	Fills     uint64 `json:"fills"`
	Fallbacks uint64 `json:"fallbacks"`
	// Served counts cells this node answered for peers.
	Served uint64 `json:"served"`
	// LoopRejects and SkewRejects count refused peer requests (hop
	// budget exceeded / fingerprint disagreement).
	LoopRejects uint64 `json:"loop_rejects"`
	SkewRejects uint64 `json:"skew_rejects"`
	// FillP50Us is the EWMA cost, in microseconds, of one fill RPC
	// that filled at least one cell.
	FillP50Us float64 `json:"fill_ewma_us"`
	// BatchRPCs counts outgoing scatter-gather fill RPCs; BatchCells
	// the cells they carried (cells/RPCs is the batching win).
	// Coalesced counts fills that joined one already in flight instead
	// of paying their own round trip.
	BatchRPCs  uint64 `json:"batch_rpcs"`
	BatchCells uint64 `json:"batch_cells"`
	Coalesced  uint64 `json:"coalesced_fills"`
	// Warm-push replication: entries pushed to the ring successor
	// after a cold simulation (sender side: sent/dropped/failed) and
	// entries accepted or refused from pushing peers (receiver side).
	WarmPushSent     uint64 `json:"warm_push_sent"`
	WarmPushDropped  uint64 `json:"warm_push_dropped"`
	WarmPushFailed   uint64 `json:"warm_push_failed"`
	WarmPushReceived uint64 `json:"warm_push_received"`
	WarmPushRejected uint64 `json:"warm_push_rejected"`
}

func (s *Server) peerCounters() *PeerCounters {
	if s.cluster == nil {
		return nil
	}
	pc := &PeerCounters{
		Fills:       s.peerFills.Load(),
		Fallbacks:   s.peerFallbacks.Load(),
		Served:      s.peerServed.Load(),
		LoopRejects: s.peerLoopRejects.Load(),
		SkewRejects: s.peerSkewRejects.Load(),
		FillP50Us:   float64(s.peerFillNanos.Load()) / 1e3,
		BatchRPCs:   s.peerBatchRPCs.Load(),
		BatchCells:  s.peerBatchCells.Load(),
		Coalesced:   s.peerFlight.followers.Load(),

		WarmPushReceived: s.warmRecv.Load(),
		WarmPushRejected: s.warmRejected.Load(),
	}
	if p := s.warmPush; p != nil {
		pc.WarmPushSent = p.sent.Load()
		pc.WarmPushDropped = p.dropped.Load()
		pc.WarmPushFailed = p.failed.Load()
	}
	return pc
}
