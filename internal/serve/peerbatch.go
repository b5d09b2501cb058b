package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
)

// Scatter-gather peer fills: runAll groups a request's misses by ring
// owner and carries each group in a single POST /v1/peer/batch, so an
// N-cell request over R remote owners costs at most R peer RPCs. Each
// cell travels with its own fingerprint (the skew guard holds per
// cell) and the hop budget applies to the whole request (the endpoint
// never forwards).
//
// On top of the grouping sits a cluster-level singleflight
// (Server.peerFlight) keyed by fingerprint: concurrent requests asking
// this node for the same remotely-owned cell share one fill instead of
// each paying a wire round trip.

// PeerBatchJob is one cell of a scatter-gather peer fill: the
// normalized single-cell request plus the caller's fingerprint for it,
// so the owner verifies identity cell by cell.
type PeerBatchJob struct {
	Req         JobRequest `json:"req"`
	Fingerprint string     `json:"fingerprint"`
}

// PeerBatchRequest is the request body of POST /v1/peer/batch.
type PeerBatchRequest struct {
	Jobs []PeerBatchJob `json:"jobs"`
}

// PeerBatchCell is one cell's outcome in a peer batch response. The
// payload is the canonical EncodeResult rendering carried as a JSON
// string: string escaping round-trips the exact bytes, where a
// RawMessage would be re-compacted in transit and break the
// byte-identity contract.
type PeerBatchCell struct {
	Fingerprint string `json:"fingerprint"`
	Tier        string `json:"tier,omitempty"`
	Payload     string `json:"payload,omitempty"`
	Error       string `json:"error,omitempty"`
	// Status carries per-cell guard outcomes (409 fingerprint skew,
	// 429 admission) without failing the cells that passed.
	Status int `json:"status,omitempty"`
}

// PeerBatchResponse is the response body of POST /v1/peer/batch.
type PeerBatchResponse struct {
	Cells []PeerBatchCell `json:"cells"`
}

// DecodePeerBatchRequest parses a peer batch request body.
func DecodePeerBatchRequest(data []byte) (PeerBatchRequest, error) {
	var r PeerBatchRequest
	if err := decodeStrict(data, &r); err != nil {
		return PeerBatchRequest{}, err
	}
	return r, nil
}

// peerBatchItem is one batch cell bound for a remote owner.
type peerBatchItem struct {
	idx int // index in the ingress batch
	fp  string
	req JobRequest
	job runner.Job
}

// errPeerUnfilled settles the flight of a cell its owner did not
// deliver; followers, like the leader, fall back to local simulation.
var errPeerUnfilled = errors.New("peer fill failed")

// fillOwnerBatch resolves one owner's group of cells: fills already in
// flight on this node are joined (coalesced), the rest travel in a
// single batch RPC, and whatever comes back empty-handed simulates
// locally.
func (s *Server) fillOwnerBatch(owner string, items []peerBatchItem, tenant string, out []batchOutcome) {
	calls := make([]*flightCall[sim.Result], len(items))
	isLeader := make([]bool, len(items))
	var leaders []peerBatchItem
	for k := range items {
		calls[k], isLeader[k] = s.peerFlight.begin(items[k].fp)
		if isLeader[k] {
			leaders = append(leaders, items[k])
		}
	}
	if len(leaders) > 0 {
		fills := make(map[string]sim.Result, len(leaders))
		func() {
			// Settle every leader's flight in a defer so waiters are
			// released even if the send path panics. Fingerprints a
			// failed RPC left unfilled settle as failed and fall back.
			defer func() {
				for k := range items {
					if !isLeader[k] {
						continue
					}
					fp := items[k].fp
					res, ok := fills[fp]
					err := errPeerUnfilled
					if ok {
						s.cache.Put(fp, res)
						err = nil
					}
					s.peerFlight.finish(fp, calls[k], res, err)
				}
			}()
			s.sendPeerBatch(owner, leaders, tenant, fills)
		}()
	}
	// Resolve every cell from its flight; losers simulate locally,
	// concurrently (they are real simulations, not cache reads).
	var wg sync.WaitGroup
	for k := range items {
		it := items[k]
		res, err := calls[k].wait()
		if err == nil {
			s.noteServed("peer", res)
			out[it.idx] = batchOutcome{cell: runner.CellResult{Result: res, Cached: true}, tier: "peer"}
			continue
		}
		s.peerFallbacks.Add(1)
		wg.Add(1)
		go func(it peerBatchItem) {
			defer wg.Done()
			out[it.idx].cell, out[it.idx].tier, out[it.idx].err = s.cell(it.job, tenant)
		}(it)
	}
	wg.Wait()
}

// sendPeerBatch issues one POST /v1/peer/batch carrying every leader
// cell and records validated fills into fills (missing key = failed).
func (s *Server) sendPeerBatch(owner string, leaders []peerBatchItem, tenant string, fills map[string]sim.Result) {
	preq := PeerBatchRequest{Jobs: make([]PeerBatchJob, len(leaders))}
	for k, it := range leaders {
		preq.Jobs[k] = PeerBatchJob{Req: it.req, Fingerprint: it.fp}
	}
	body, err := json.Marshal(preq)
	if err != nil {
		return
	}
	hdr := http.Header{}
	hdr.Set(PeerHopHeader, "1")
	if tenant != "" && tenant != AnonTenant {
		hdr.Set(TenantHeader, tenant)
	}
	start := time.Now()
	s.peerBatchRPCs.Add(1)
	s.peerBatchCells.Add(uint64(len(leaders)))
	resp, err := s.cluster.Forward(s.ctx, owner, "/v1/peer/batch", body, hdr)
	if err != nil {
		s.cluster.MarkDead(owner)
		s.events.Log("peer_unreachable", map[string]any{"peer": owner, "cells": len(leaders), "err": err.Error()})
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		s.events.Log("peer_refused", map[string]any{"peer": owner, "cells": len(leaders), "status": resp.StatusCode})
		return
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes+1))
	if err != nil || len(payload) > maxPeerResponseBytes {
		s.cluster.MarkDead(owner)
		return
	}
	var presp PeerBatchResponse
	if err := json.Unmarshal(payload, &presp); err != nil {
		s.events.Log("peer_corrupt", map[string]any{"peer": owner, "cause": "undecodable batch response"})
		return
	}
	byFp := make(map[string]*PeerBatchCell, len(presp.Cells))
	for k := range presp.Cells {
		byFp[presp.Cells[k].Fingerprint] = &presp.Cells[k]
	}
	for _, it := range leaders {
		pc := byFp[it.fp]
		if pc == nil || pc.Error != "" || pc.Payload == "" {
			continue
		}
		pb := []byte(pc.Payload)
		var res sim.Result
		if json.Unmarshal(pb, &res) != nil || !bytes.Equal(EncodeResult(res), pb) {
			// The cache contract survives the wire only if the peer's
			// bytes are the canonical rendering: a non-canonical payload
			// (version skew or corruption, not a fingerprint
			// disagreement) never enters the cache and the cell falls
			// back to local simulation.
			s.events.Log("peer_corrupt", map[string]any{"peer": owner, "fingerprint": it.fp, "cause": "non-canonical batch payload"})
			continue
		}
		fills[it.fp] = res
		s.peerFills.Add(1)
	}
	if len(fills) > 0 {
		s.notePeerFillDuration(time.Since(start))
	}
}

// handlePeerBatch serves POST /v1/peer/batch: the owner-side half of
// scatter-gather. Cells run concurrently through the ordinary cell
// path (cache → singleflight → simulate) and each answers with the
// canonical payload bytes. It never forwards and skips tenant
// admission — the ingress node already charged the caller — but
// queue-full refusals surface per cell as 429s.
func (s *Server) handlePeerBatch(w http.ResponseWriter, r *http.Request) {
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
	req, err := DecodePeerBatchRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad peer batch request: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "peer batch has no jobs")
		return
	}
	if len(req.Jobs) > maxBatchCells {
		httpError(w, http.StatusBadRequest, "peer batch has %d cells; cap is %d", len(req.Jobs), maxBatchCells)
		return
	}
	start := time.Now()
	tenant := tenantOf(r)
	cells := make([]PeerBatchCell, len(req.Jobs))
	var wg sync.WaitGroup
	for i := range req.Jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cells[i] = s.servePeerBatchCell(req.Jobs[i], tenant)
		}(i)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(PeerOwnerHeader, s.cluster.Self())
	w.Header().Set("X-Psb-Serve-Us", fmt.Sprintf("%d", time.Since(start).Microseconds()))
	json.NewEncoder(w).Encode(PeerBatchResponse{Cells: cells})
}

// requirePeerCluster rejects peer-protocol requests on a standalone
// node (404, matching the route simply not existing).
func (s *Server) requirePeerCluster(w http.ResponseWriter) bool {
	if s.cluster == nil {
		httpError(w, http.StatusNotFound, "not a cluster member (started without -peers)")
		return false
	}
	return true
}

// peerHopGuard enforces the forwarding hop budget, writing the 508
// and reporting false when the request claims more hops than the
// protocol allows (a routing loop or a spoofer).
func (s *Server) peerHopGuard(w http.ResponseWriter, r *http.Request) bool {
	hopStr := r.Header.Get(PeerHopHeader)
	if hopStr == "" {
		return true
	}
	hop, err := strconv.Atoi(hopStr)
	if err != nil || hop < 0 || hop > maxPeerHops {
		s.peerLoopRejects.Add(1)
		s.events.Log("peer_loop_rejected", map[string]any{"hop": hopStr, "from": r.RemoteAddr, "path": r.URL.Path})
		httpError(w, http.StatusLoopDetected,
			"peer hop count %q exceeds %d: forwarding loop (mismatched -peers lists?)", hopStr, maxPeerHops)
		return false
	}
	return true
}

// servePeerBatchCell resolves one cell of an incoming peer batch.
func (s *Server) servePeerBatchCell(pj PeerBatchJob, tenant string) PeerBatchCell {
	jobs, err := pj.Req.Jobs(s.base)
	if err != nil {
		return PeerBatchCell{Fingerprint: pj.Fingerprint, Status: http.StatusBadRequest, Error: err.Error()}
	}
	if len(jobs) != 1 {
		return PeerBatchCell{Fingerprint: pj.Fingerprint, Status: http.StatusBadRequest, Error: "peer batch cell must describe exactly one job"}
	}
	fp := jobs[0].Fingerprint()
	if pj.Fingerprint != "" && pj.Fingerprint != fp {
		s.peerSkewRejects.Add(1)
		s.events.Log("peer_fingerprint_skew", map[string]any{"got": fp, "want": pj.Fingerprint, "path": "/v1/peer/batch"})
		return PeerBatchCell{Fingerprint: pj.Fingerprint, Status: http.StatusConflict,
			Error: "fingerprint skew: caller expects " + pj.Fingerprint + ", this node computes " + fp + " (mixed versions in the cluster?)"}
	}
	cell, tier, err := s.cell(jobs[0], tenant)
	switch {
	case errors.Is(err, runner.ErrQueueFull):
		return PeerBatchCell{Fingerprint: fp, Status: http.StatusTooManyRequests, Error: err.Error()}
	case err != nil:
		return PeerBatchCell{Fingerprint: fp, Status: http.StatusInternalServerError, Error: err.Error()}
	case cell.Err != nil:
		return PeerBatchCell{Fingerprint: fp, Status: http.StatusUnprocessableEntity, Error: cell.Err.Error()}
	}
	s.peerServed.Add(1)
	return PeerBatchCell{Fingerprint: fp, Tier: tier, Payload: string(EncodeResult(cell.Result))}
}
