// Package sample implements SMARTS-style sampled simulation support:
// a content-addressed store of functional fast-forward checkpoints and
// the statistics that turn per-interval measurements into an IPC
// estimate with a confidence interval.
//
// Checkpoints are scheme-independent (see cpu.Functional): a cell
// matrix evaluating N prefetcher variants over one workload performs
// the functional fast-forward exactly once, and every scheme resumes
// its detailed measurement intervals from the same stored state. The
// store is keyed like the trace cache — workload, seed, and a digest
// of the warm-structure geometry — plus the interval-boundary position
// within the stream, and persists checkpoints next to trace recordings
// through the same temp-and-rename writer (internal/atomicfile).
package sample

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/atomicfile"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// FileExt is the on-disk extension of persisted checkpoints.
const FileExt = ".psbckpt"

// Key identifies one workload's checkpoint stream. Two configurations
// share checkpoints exactly when they share the committed instruction
// stream (workload + seed) and the geometry of every warmed structure
// (caches, TLB, gshare); the prefetcher scheme deliberately does not
// participate.
type Key struct {
	Workload string
	Seed     int64
	// Geometry is GeometryDigest over the mem and gshare configuration.
	Geometry string
}

// filename is the on-disk name of the key's checkpoint at pos.
func (k Key) filename(pos uint64) string {
	return fmt.Sprintf("%s-seed%d-pos%d-g%s%s", k.Workload, k.Seed, pos, k.Geometry, FileExt)
}

// GeometryDigest fingerprints the configuration of every structure a
// checkpoint carries. Mismatched geometries hash differently and so
// never share (or even see) each other's checkpoints.
func GeometryDigest(mc mem.Config, gc cpu.GshareConfig) string {
	b, err := json.Marshal(struct {
		Mem    mem.Config
		Gshare cpu.GshareConfig
	}{mc, gc})
	if err != nil {
		panic(err) // static config structs always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Stats counts store traffic (atomic snapshots; safe to read while
// simulations run).
type Stats struct {
	// Hits counts requests answered by an existing in-memory
	// checkpoint; Misses counts requests that had to advance the
	// functional executor (or load from disk) to produce one.
	Hits, Misses uint64
	// DiskLoads counts checkpoints restored from a checkpoint
	// directory; DiskWrites counts .psbckpt files written.
	DiskLoads, DiskWrites uint64
	// FunctionalInsts is the total number of instructions executed by
	// functional fast-forward on behalf of the store — the work every
	// hit avoided repeating.
	FunctionalInsts uint64
	// Bytes is the memory the store holds: its whole checkpoints and
	// deltas, each key's generator scratch states and the cursors
	// finished runs released. Executors and miss profiles are not
	// counted.
	Bytes uint64
}

// entry is one key's checkpoints plus its live functional executor.
// mu guards the checkpoint index and the released cursors (readers
// take it briefly); gen serializes generation, so concurrent requests
// that both miss advance one executor once instead of fast-forwarding
// twice (singleflight).
type entry struct {
	mu    sync.Mutex
	ckpts []*ckpt   // published checkpoints, by position
	idle  []*Cursor // cursors released by finished runs

	gen sync.Mutex
	f   *cpu.Functional
	// last holds the checkpoint f last matched: the snapshot it took
	// or the checkpoint it restored. Its ckpt is nil when f has matched
	// none since it booted. trained is f.Trained() at that match.
	last    Cursor
	trained uint64

	profMu   sync.Mutex
	profiles map[uint64][]uint32 // miss profile by covered length
}

// after returns the index of the first checkpoint past pos. The
// caller holds e.mu.
func (e *entry) after(pos uint64) int {
	return sort.Search(len(e.ckpts), func(i int) bool { return e.ckpts[i].pos > pos })
}

// best returns the checkpoint with the greatest position not exceeding
// pos, or nil.
func (e *entry) best(pos uint64) *ckpt {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i := e.after(pos); i > 0 {
		return e.ckpts[i-1]
	}
	return nil
}

func (e *entry) lookup(pos uint64) *ckpt {
	if b := e.best(pos); b != nil && b.pos == pos {
		return b
	}
	return nil
}

// Cursor is one reader's view of a key's checkpoints: the materialized
// state of the checkpoint it last reached. Store.At moves it to the
// requested checkpoint, applying only the deltas in between when the
// target descends from the checkpoint it holds (one delta per interval
// in a sampled run's ascending walk) and rebuilding from the target's
// nearest whole checkpoint otherwise. A cursor belongs to one run at a
// time. The zero value is ready to use; Store.Cursor reuses the
// buffers of cursors earlier runs released.
type Cursor struct {
	e  *entry
	ck *ckpt
	st cpu.FunctionalState
}

// seek makes c hold ck, a checkpoint of e.
func (c *Cursor) seek(e *entry, ck *ckpt) {
	if c.e != e {
		c.e, c.ck = e, nil
	}
	switch {
	case ck == c.ck:
		return
	case ck.whole != nil:
		if c.st.Train == nil {
			c.st.Train = make([]cpu.TrainEvent, 0, cpu.TrainRingCap) // room for a full ring
		}
		copyState(&c.st, ck.whole)
	default:
		c.seek(e, ck.base)
		ck.d.apply(&c.st)
	}
	c.ck = ck
}

// Store is the process-wide checkpoint store. The zero value is ready
// to use; Shared returns the instance the simulator uses.
type Store struct {
	mu      sync.Mutex
	entries map[Key]*entry

	hits, misses, diskLoads, diskWrites, functional, bytes atomic.Uint64
}

var shared Store

// Shared returns the process-wide store: every sampled simulation in
// the process (all matrix cells, across all worker goroutines) draws
// on the same checkpoints.
func Shared() *Store { return &shared }

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		DiskLoads:       s.diskLoads.Load(),
		DiskWrites:      s.diskWrites.Load(),
		FunctionalInsts: s.functional.Load(),
		Bytes:           s.bytes.Load(),
	}
}

func (s *Store) entry(k Key) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil {
		s.entries = make(map[Key]*entry)
	}
	e := s.entries[k]
	if e == nil {
		e = new(entry)
		s.entries[k] = e
	}
	return e
}

// publish adds a new checkpoint to e's index.
func (s *Store) publish(e *entry, ck *ckpt) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ckpts = slices.Insert(e.ckpts, e.after(ck.pos), ck)
	s.bytes.Add(ck.size)
}

// Cursor returns a cursor for k's checkpoints, reusing one that an
// earlier run released when there is one, so a warm run allocates no
// state.
func (s *Store) Cursor(k Key) *Cursor {
	e := s.entry(k)
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.idle)
	if n == 0 {
		return &Cursor{e: e}
	}
	c := e.idle[n-1]
	e.idle = e.idle[:n-1]
	s.bytes.Add(-stateBytes(&c.st))
	return c
}

// Release hands c back for later runs of the key it last read. Neither
// c nor the state its last At returned may be used afterwards.
func (s *Store) Release(c *Cursor) {
	if c.e == nil {
		return
	}
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	c.e.idle = append(c.e.idle, c)
	s.bytes.Add(stateBytes(&c.st))
}

// AtInfo attributes one At call: whether it hit a cached checkpoint,
// whether the checkpoint came from disk, and how many instructions of
// functional fast-forward the call performed (0 on any kind of hit).
type AtInfo struct {
	Hit             bool
	Disk            bool
	FunctionalInsts uint64
}

// At moves c to the checkpoint for key k at stream position pos and
// returns its state, fast-forwarding functionally to create the
// checkpoint if no cached or persisted one exists. boot constructs a
// cold executor positioned at the stream's start; it is only called
// when work is actually needed. When dir is non-empty, checkpoints are
// loaded from and persisted to
// <dir>/<workload>-seed<seed>-pos<pos>-g<geom>.psbckpt.
//
// Generation is incremental and singleflight per key: a request for
// position P resumes the key's live executor (or the nearest earlier
// checkpoint) rather than replaying from zero, and concurrent misses
// on one key wait for a single generator. A generated checkpoint is
// stored as a delta against the checkpoint the executor last matched;
// a loaded one as a delta against c's checkpoint when that is earlier.
// The returned state belongs to c: it is read-only and stays valid
// until c's next At.
func (s *Store) At(c *Cursor, k Key, pos uint64, dir string, boot func() *cpu.Functional) (*cpu.FunctionalState, AtInfo, error) {
	e := s.entry(k)
	if ck := e.lookup(pos); ck != nil {
		s.hits.Add(1)
		c.seek(e, ck)
		return &c.st, AtInfo{Hit: true}, nil
	}

	// Serialize generation for this key; whoever held the lock may
	// have produced exactly the checkpoint we want.
	e.gen.Lock()
	defer e.gen.Unlock()
	if ck := e.lookup(pos); ck != nil {
		s.hits.Add(1)
		c.seek(e, ck)
		return &c.st, AtInfo{Hit: true}, nil
	}

	if dir != "" {
		if st, err := s.load(k, pos, dir); err == nil {
			// A persisted checkpoint from an earlier process. Its train
			// ring is stored whole: nothing tells which events are new.
			// Corrupt or mismatched files fall through and are
			// regenerated (and overwritten) below.
			s.diskLoads.Add(1)
			var base *ckpt
			if c.e == e && c.ck != nil && c.ck.pos < pos && sameShape(&c.st, st) {
				base = c.ck
			}
			ck := newCkpt(base, &c.st, st, uint64(len(st.Train)))
			s.publish(e, ck)
			c.seek(e, ck)
			return &c.st, AtInfo{Disk: true}, nil
		}
	}

	s.misses.Add(1)
	held := stateBytes(&e.last.st)
	defer func() { s.bytes.Add(stateBytes(&e.last.st) - held) }() // wraps to a subtraction when it shrank
	if e.f == nil {
		e.f, e.last.ck = boot(), nil
	}
	b := e.best(pos)
	switch {
	case b != nil && (e.f.Pos() > pos || b.pos > e.f.Pos()):
		// Rewind an executor that ran past pos (an out-of-order
		// request), or jump forward through a cached (e.g.
		// disk-loaded) checkpoint ahead of it.
		e.last.seek(e, b)
		if err := e.f.Restore(&e.last.st); err != nil {
			e.f = nil
			return nil, AtInfo{}, fmt.Errorf("sample: restoring checkpoint at %d: %w", b.pos, err)
		}
		e.trained = e.f.Trained()
	case e.f.Pos() > pos:
		e.f, e.last.ck = boot(), nil
	}
	advanced := e.f.AdvanceTo(pos)
	s.functional.Add(advanced)
	if e.f.Pos() != pos {
		return nil, AtInfo{}, fmt.Errorf("sample: %s/seed%d: recording ends at %d, checkpoint position %d unreachable",
			k.Workload, k.Seed, e.f.Pos(), pos)
	}
	// The snapshot goes straight into the caller's cursor; the
	// generator's own state follows it by one delta.
	e.f.SnapshotInto(&c.st)
	ck := newCkpt(e.last.ck, &e.last.st, &c.st, e.f.Trained()-e.trained)
	c.e, c.ck = e, ck
	e.last.seek(e, ck)
	e.trained = e.f.Trained()
	s.publish(e, ck)
	if dir != "" {
		if err := s.store(k, dir, &c.st); err != nil {
			return nil, AtInfo{}, err
		}
	}
	return &c.st, AtInfo{FunctionalInsts: advanced}, nil
}

// ProfileShift is the miss-profile bucket granularity: buckets of
// 2^ProfileShift instructions.
const ProfileShift = 10

// Profile returns the per-bucket L1D miss profile of the key's stream
// over [0, n), computing it with one dedicated functional pass on
// first request (singleflight per key; later calls, from other schemes
// sharing the workload, return the cached slice). The second return
// value is the functional work this call performed — zero on a cache
// hit. The profile is the stratification covariate for sampled
// simulation: it is scheme-independent by construction, so every
// scheme derives the identical measurement schedule from it. The
// returned slice is shared and must be treated as read-only.
func (s *Store) Profile(k Key, n uint64, boot func() *cpu.Functional) ([]uint32, uint64, error) {
	e := s.entry(k)
	e.profMu.Lock()
	defer e.profMu.Unlock()
	if p := e.profiles[n]; p != nil {
		s.hits.Add(1)
		return p, 0, nil
	}
	s.misses.Add(1)
	f := boot()
	buckets := int((n + (1 << ProfileShift) - 1) >> ProfileShift)
	f.EnableMissProfile(ProfileShift, buckets)
	advanced := f.AdvanceTo(n)
	s.functional.Add(advanced)
	if f.Pos() != n {
		return nil, 0, fmt.Errorf("sample: %s/seed%d: recording ends at %d, cannot profile %d instructions",
			k.Workload, k.Seed, f.Pos(), n)
	}
	p := f.MissProfile()
	if e.profiles == nil {
		e.profiles = make(map[uint64][]uint32)
	}
	e.profiles[n] = p
	return p, advanced, nil
}

// load reads a persisted checkpoint, returning an error when the file
// is missing, corrupt, or written under a different key or geometry.
func (s *Store) load(k Key, pos uint64, dir string) (*cpu.FunctionalState, error) {
	data, err := os.ReadFile(filepath.Join(dir, k.filename(pos)))
	if err != nil {
		return nil, err
	}
	st, err := Decode(data, k)
	if err != nil {
		return nil, err
	}
	if st.Pos != pos {
		return nil, fmt.Errorf("sample: %s holds position %d", k.filename(pos), st.Pos)
	}
	return st, nil
}

// store persists a checkpoint via write-to-temp-then-rename, so a
// crashed or concurrent writer never leaves a torn file behind.
func (s *Store) store(k Key, dir string, st *cpu.FunctionalState) error {
	name := k.filename(st.Pos)
	err := atomicfile.Write(filepath.Join(dir, name), func(w io.Writer) error {
		_, err := w.Write(Encode(k, st))
		return err
	})
	if err != nil {
		return fmt.Errorf("sample: writing %s: %w", name, err)
	}
	s.diskWrites.Add(1)
	return nil
}
