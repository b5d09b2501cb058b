package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/vm"
)

// Key identifies one recorded stream: the committed path is a pure
// function of the workload, its heap-layout seed and the instruction
// budget, so two runs sharing a Key share a trace no matter which
// prefetcher or machine geometry they evaluate.
type Key struct {
	Workload string
	Seed     int64
	MaxInsts uint64
}

// filename is the on-disk name of the key's trace.
func (k Key) filename() string {
	return fmt.Sprintf("%s-seed%d-n%d%s", k.Workload, k.Seed, k.MaxInsts, FileExt)
}

// Stats counts cache traffic (atomic snapshots; safe to read while
// simulations run).
type Stats struct {
	// Hits is the number of requests served by replaying an existing
	// recording; Misses the number that had to record (or extend) one.
	Hits, Misses uint64
	// DedupWaits counts requests that arrived while another goroutine
	// was already recording the same key and waited for that recording
	// instead of starting their own — the singleflight savings.
	DedupWaits uint64
	// DiskLoads counts recordings satisfied from a trace directory;
	// DiskWrites counts .psbtrace files written.
	DiskLoads, DiskWrites uint64
	// RecordedInsts is the total number of instructions executed by
	// the functional simulator on behalf of the cache — the work every
	// hit avoided repeating.
	RecordedInsts uint64
}

// entry is one key's recording. Recording is singleflight: the first
// requester publishes a recording channel and records outside the
// lock; every concurrent requester for the same key waits on that
// channel and then replays the finished recording. mu guards only the
// published fields, never long work.
type entry struct {
	mu       sync.Mutex
	insts    []vm.DynInst
	complete bool
	m        *vm.Machine // live recorder, kept until complete for extension
	// recording is non-nil while a recorder is active and closed when
	// it publishes; waiters block on it instead of piling onto mu.
	recording chan struct{}
}

// satisfies reports whether a recording can serve a consumer that may
// pull up to need instructions (need == 0 means "the whole run").
func satisfies(insts []vm.DynInst, complete bool, need uint64) bool {
	if complete {
		return true
	}
	return need > 0 && uint64(len(insts)) >= need
}

// maxReserve caps the records a recording reserves before it steps.
// Every benchmark recording fits under it (the largest needs 2,000,176
// records), so each takes one allocation; past the cap the recording
// grows by append as it steps, so a huge requested budget claims no
// more memory up front than this.
const maxReserve = 1 << 22

// Cache records each workload's dynamic instruction stream once and
// hands out zero-copy replay sources. The zero value is ready to use;
// Shared returns the process-wide instance the simulator uses.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry

	hits, misses, dedupWaits, diskLoads, diskWrites, recorded atomic.Uint64
}

var shared Cache

// Shared returns the process-wide cache: every simulation in the
// process (all matrix cells, across all worker goroutines) draws on
// the same set of recordings.
func Shared() *Cache { return &shared }

// Stats returns a snapshot of the cache's traffic counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		DedupWaits:    c.dedupWaits.Load(),
		DiskLoads:     c.diskLoads.Load(),
		DiskWrites:    c.diskWrites.Load(),
		RecordedInsts: c.recorded.Load(),
	}
}

func (c *Cache) entry(k Key) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[Key]*entry)
	}
	e := c.entries[k]
	if e == nil {
		e = &entry{}
		c.entries[k] = e
	}
	return e
}

// Source returns a replay source for the key's stream, recording it
// first if no sufficient recording exists. need is the largest number
// of instructions the consumer may pull (0 = the whole run, which
// requires the program to halt); build constructs a fresh functional
// machine positioned at the program's first instruction. When dir is
// non-empty, recordings are loaded from and persisted to
// <dir>/<workload>-seed<seed>-n<insts>.psbtrace.
//
// Concurrent calls with the same key deduplicate on the recording
// (singleflight): exactly one caller records while the rest wait for
// the published recording, then every caller replays the same backing
// slice without copying it. The recorder does all of its work —
// workload construction, functional stepping, disk I/O — outside the
// entry lock, so waiters never contend a mutex held across a
// simulation.
func (c *Cache) Source(k Key, need uint64, dir string, build func() *vm.Machine) (*Replay, error) {
	e := c.entry(k)
	waited := false
	for {
		e.mu.Lock()
		if satisfies(e.insts, e.complete, need) {
			insts := e.insts
			e.mu.Unlock()
			c.hits.Add(1)
			return &Replay{insts: insts}, nil
		}
		if e.recording != nil {
			// Another goroutine is recording this key: wait for its
			// publication instead of recording a duplicate stream.
			done := e.recording
			e.mu.Unlock()
			if !waited {
				waited = true
				c.dedupWaits.Add(1)
			}
			<-done
			continue
		}
		// Become the recorder: publish the flight channel, take
		// ownership of the entry's state, and leave the lock.
		done := make(chan struct{})
		e.recording = done
		insts, complete, m := e.insts, e.complete, e.m
		e.m = nil
		e.mu.Unlock()

		return c.record(e, k, need, dir, build, insts, complete, m)
	}
}

// record runs one singleflight recording round: it (re)builds or
// extends the functional machine, steps it to the needed length,
// optionally persists the stream, and publishes the result to the
// entry — waking every waiter — even if build or Step panics (the
// panic propagates to this caller alone; waiters retry and surface
// the same deterministic failure themselves).
func (c *Cache) record(e *entry, k Key, need uint64, dir string,
	build func() *vm.Machine, insts []vm.DynInst, complete bool, m *vm.Machine) (*Replay, error) {
	done := e.recording
	defer func() {
		e.mu.Lock()
		e.insts, e.complete, e.m = insts, complete, m
		e.recording = nil
		e.mu.Unlock()
		close(done)
	}()

	if dir != "" && insts == nil && m == nil {
		if loaded, loadedComplete, lerr := c.load(k, dir); lerr == nil {
			if satisfies(loaded, loadedComplete, need) {
				c.diskLoads.Add(1)
				insts, complete = loaded, loadedComplete
				return &Replay{insts: insts}, nil
			}
			// The file is too short for this consumer: re-record from
			// scratch (the functional machine cannot resume mid-file).
		}
	}

	c.misses.Add(1)
	if m == nil {
		// Either nothing recorded yet, or a short disk trace was
		// discarded above; start a fresh recorder.
		insts, complete = nil, false
		m = build()
	}
	// Reserve the need (up to maxReserve) before stepping, so the loop
	// below does not grow the slice: a fresh recording allocates once,
	// an extension reallocates once, straight to its new length.
	if want := min(need, maxReserve); uint64(cap(insts)) < want {
		insts = append(make([]vm.DynInst, 0, want), insts...)
	}
	start := len(insts)
	for !complete && (need == 0 || uint64(len(insts)) < need) {
		d, serr := m.Step()
		if serr != nil {
			// HALT or a functional fault: the stream ends here for
			// every consumer, exactly as a live source would end.
			complete = true
			break
		}
		insts = append(insts, d)
	}
	c.recorded.Add(uint64(len(insts) - start))
	if unused := cap(insts) - len(insts); unused > cap(insts)/8 {
		// The recording ended well short of its capacity (the program
		// halted): keep a copy of just the recording, so the cache
		// never pins capacity no replay can reach.
		insts = append(make([]vm.DynInst, 0, len(insts)), insts...)
	}
	if complete {
		m = nil // free the guest machine; the recording is final
	}
	if dir != "" {
		if err := c.store(k, dir, insts, complete); err != nil {
			return nil, err
		}
	}
	return &Replay{insts: insts}, nil
}

// load reads a persisted recording, returning an error when the file
// is missing, unreadable, corrupt, or recorded under a different key.
func (c *Cache) load(k Key, dir string) ([]vm.DynInst, bool, error) {
	f, err := os.Open(filepath.Join(dir, k.filename()))
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	dec, err := NewDecoder(f)
	if err != nil {
		return nil, false, err
	}
	hdr := dec.Header()
	if hdr.Workload != k.Workload || hdr.Seed != k.Seed || hdr.MaxInsts != k.MaxInsts {
		return nil, false, fmt.Errorf("trace: %s was recorded for %s/seed=%d/n=%d",
			k.filename(), hdr.Workload, hdr.Seed, hdr.MaxInsts)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	insts, err := dec.ReadAll(fi.Size())
	if err != nil {
		return nil, false, err
	}
	return insts, hdr.Complete, nil
}

// store persists a recording via write-to-temp-then-rename, so a
// crashed or concurrent writer never leaves a torn file behind.
func (c *Cache) store(k Key, dir string, insts []vm.DynInst, complete bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	tmp, err := os.CreateTemp(dir, k.filename()+".tmp*")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer os.Remove(tmp.Name())
	err = writeTrace(tmp, Header{
		Workload: k.Workload, Seed: k.Seed, MaxInsts: k.MaxInsts,
		Count: uint64(len(insts)), Complete: complete,
	}, insts)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", k.filename(), err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, k.filename())); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	c.diskWrites.Add(1)
	return nil
}

// writeTrace encodes a whole stream to w.
func writeTrace(w io.Writer, hdr Header, insts []vm.DynInst) error {
	enc, err := NewEncoder(w, hdr)
	if err != nil {
		return err
	}
	for _, d := range insts {
		if err := enc.Write(d); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// Replay serves a recorded stream. It structurally satisfies the
// timing core's Source interface (Next() (vm.DynInst, bool)) without
// importing it, and shares the cache's backing slice — constructing a
// replay copies two words, not the trace.
type Replay struct {
	insts []vm.DynInst
	pos   int
}

// Next implements the dynamic-instruction source contract.
func (r *Replay) Next() (vm.DynInst, bool) {
	if r.pos >= len(r.insts) {
		return vm.DynInst{}, false
	}
	d := r.insts[r.pos]
	r.pos++
	return d, true
}

// Len returns the number of instructions in the recording.
func (r *Replay) Len() int { return len(r.insts) }

// From returns a new Replay over the same backing recording,
// positioned pos records in (clamped to the recording length). The
// sampled-simulation driver uses it to start detailed measurement
// intervals mid-stream without copying the trace.
func (r *Replay) From(pos uint64) *Replay {
	p := pos
	if max := uint64(len(r.insts)); p > max {
		p = max
	}
	return &Replay{insts: r.insts, pos: int(p)}
}

// Rest exposes the recording's remaining records as a slice aliasing
// the cache's backing array. Consumers that can index a slice directly
// (the timing core's shared-replay cursor) read records in place — no
// per-instruction interface call, no record copy — which is what lets
// many lockstepped simulations share one decoded trace cache-hot.
// Callers must not mutate the returned slice; Next and Rest must not
// be mixed on the same Replay.
func (r *Replay) Rest() []vm.DynInst { return r.insts[r.pos:] }
