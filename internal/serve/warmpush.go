package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Successor warm-push: after this node pays for a cold simulation, it
// replicates the encoded entry to the fingerprint's next alive ring
// successor, best-effort. When the owner later dies, failover requests
// land on that successor with a warm cache instead of re-simulating —
// the proactive half of ROADMAP's anti-entropy item. The push rides a
// bounded queue drained by one background worker: enqueueing never
// blocks a request, and backpressure drops pushes (counted) rather
// than queueing unboundedly.

// WarmPushRequest is the body of POST /v1/peer/warm: the normalized
// request (so the receiver derives and verifies the fingerprint
// itself), plus the canonical payload as a JSON string — the same
// byte-exact carrier the batch protocol uses.
type WarmPushRequest struct {
	Req         JobRequest `json:"req"`
	Fingerprint string     `json:"fingerprint"`
	Payload     string     `json:"payload"`
}

// warmPushItem is one queued replication.
type warmPushItem struct {
	target string
	body   []byte
}

// warmPusher owns the bounded queue and sender-side counters.
type warmPusher struct {
	ch                    chan warmPushItem
	sent, dropped, failed atomic.Uint64
}

func newWarmPusher(depth int) *warmPusher {
	return &warmPusher{ch: make(chan warmPushItem, depth)}
}

// run drains the queue until the server's context ends. One worker is
// enough: pushes are small, best-effort, and intentionally off the
// request path.
func (p *warmPusher) run(s *Server) {
	for {
		select {
		case <-s.ctx.Done():
			return
		case it := <-p.ch:
			hdr := http.Header{}
			hdr.Set(PeerHopHeader, "1")
			resp, err := s.cluster.Forward(s.ctx, it.target, "/v1/peer/warm", it.body, hdr)
			if err != nil {
				p.failed.Add(1)
				s.cluster.MarkDead(it.target)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				p.sent.Add(1)
			} else {
				p.failed.Add(1)
			}
		}
	}
}

// maybeWarmPush enqueues a freshly simulated entry for replication to
// the fingerprint's successor. Never blocks: a full queue drops the
// push and counts the drop.
func (s *Server) maybeWarmPush(job runner.Job, fp string, res sim.Result) {
	p := s.warmPush
	if p == nil {
		return
	}
	target := s.warmTarget(fp)
	if target == "" {
		return
	}
	req, ok := s.peerRequest(job, fp)
	if !ok {
		return
	}
	body, err := json.Marshal(WarmPushRequest{Req: req, Fingerprint: fp, Payload: string(results.Encode(res))})
	if err != nil {
		return
	}
	select {
	case p.ch <- warmPushItem{target: target, body: body}:
	default:
		p.dropped.Add(1)
	}
}

// warmTarget picks the first alive member after this node in the
// fingerprint's successor order — exactly the node failover would
// route to if this one died.
func (s *Server) warmTarget(fp string) string {
	ring := s.cluster.Ring()
	for _, n := range ring.Successors(fp, ring.Len()) {
		if n == s.cluster.Self() {
			continue
		}
		if s.cluster.Alive(n) {
			return n
		}
	}
	return ""
}

// handlePeerWarm accepts a pushed entry: same guards as every peer
// endpoint (cluster membership, hop budget), then the receiver
// recomputes the fingerprint from the request — never trusting the
// pusher's — and validates the payload is the canonical rendering
// before it may enter the cache.
func (s *Server) handlePeerWarm(w http.ResponseWriter, r *http.Request) {
	if !s.requirePeerCluster(w) {
		return
	}
	if !s.peerHopGuard(w, r) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req WarmPushRequest
	if err := decodeStrict(body, &req); err != nil {
		s.warmRejected.Add(1)
		httpError(w, http.StatusBadRequest, "bad warm-push request: %v", err)
		return
	}
	jobs, err := req.Req.Jobs(s.base)
	if err != nil || len(jobs) != 1 {
		s.warmRejected.Add(1)
		httpError(w, http.StatusBadRequest, "warm-push request must describe exactly one job")
		return
	}
	fp := jobs[0].Fingerprint()
	if req.Fingerprint != fp {
		s.warmRejected.Add(1)
		s.peerSkewRejects.Add(1)
		s.events.Log("peer_skew_rejected", map[string]any{
			"ours": fp, "theirs": req.Fingerprint, "from": r.RemoteAddr, "path": "/v1/peer/warm",
		})
		httpError(w, http.StatusConflict,
			"fingerprint skew: pusher says %s, this node computes %s", req.Fingerprint, fp)
		return
	}
	pb := []byte(req.Payload)
	var res sim.Result
	if json.Unmarshal(pb, &res) != nil || !bytes.Equal(results.Encode(res), pb) {
		s.warmRejected.Add(1)
		s.events.Log("peer_corrupt", map[string]any{
			"from": r.RemoteAddr, "fingerprint": fp, "cause": "non-canonical warm-push payload",
		})
		httpError(w, http.StatusBadRequest, "warm-push payload is not the canonical rendering")
		return
	}
	s.cache.Put(fp, res)
	s.warmRecv.Add(1)
	w.WriteHeader(http.StatusNoContent)
}
