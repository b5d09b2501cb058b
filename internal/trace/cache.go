package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"unsafe"

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
	// Bytes is the memory the cache's recordings hold: their record
	// bytes plus seek marks.
	Bytes uint64
}

// markEvery is the spacing, in records, of a recording's seek marks.
const markEvery = 1024

// A mark lets a replay start decoding at record i*markEvery without
// decoding the records before it: the byte offset of that record and
// the delta context that decodes it.
type mark struct {
	off  int
	prev prevState
}

// markBytes is the memory one mark takes.
const markBytes = uint64(unsafe.Sizeof(mark{}))

// A recording is one stream's records in their .psbtrace encoding —
// exactly the bytes a file holds after its header — plus a seek mark
// every markEvery records. A recording value is a snapshot: extending
// it appends only past the lengths its earlier copies see, so a copy
// handed to a replay stays valid while the recorder extends the
// original.
type recording struct {
	data  []byte
	marks []mark
	n     int       // records in data
	end   prevState // delta context after the last record
}

// size is the memory a recording holds.
func (r *recording) size() uint64 {
	return uint64(len(r.data)) + uint64(len(r.marks))*markBytes
}

// append encodes one stepped record onto the recording.
func (r *recording) append(d *vm.DynInst) {
	if r.n%markEvery == 0 {
		r.marks = append(r.marks, mark{off: len(r.data), prev: r.end})
	}
	r.data = appendRecord(r.data, &r.end, d)
	r.n++
}

// reserve makes room for records more records at reserveBytes each,
// reallocating at most once.
func (r *recording) reserve(records uint64) {
	if want := records * reserveBytes; uint64(cap(r.data)-len(r.data)) < want {
		r.data = append(make([]byte, 0, uint64(len(r.data))+want), r.data...)
	}
}

// replay returns a Replay positioned at the recording's first record.
func (r *recording) replay() *Replay {
	return &Replay{cursor: cursor{data: r.data}, marks: r.marks, n: r.n}
}

// trimmed returns s, or a copy of just its elements when more than an
// eighth of its capacity is unused, so the cache never pins capacity
// no replay can reach.
func trimmed[T any](s []T) []T {
	if cap(s)-len(s) > cap(s)/8 {
		return append(make([]T, 0, len(s)), s...)
	}
	return s
}

// parse validates a whole .psbtrace file — its header, every record,
// and that the header's Count records end exactly at the end of the
// file — and returns its recording, which aliases data's record bytes.
// Count is checked against the bytes before anything is reserved from
// it, so a hostile header claims no more memory than the file bounds.
func parse(data []byte) (Header, recording, error) {
	hdr, off, err := parseHeader(data)
	if err != nil {
		return hdr, recording{}, err
	}
	body := data[off:]
	if hdr.Count > uint64(len(body))/minRecordBytes {
		return hdr, recording{}, fmt.Errorf("%w: %d records cannot fit in %d bytes", ErrCorrupt, hdr.Count, len(body))
	}
	n := int(hdr.Count)
	rec := recording{data: body, marks: make([]mark, 0, (n+markEvery-1)/markEvery), n: n}
	cur := cursor{data: body}
	var batch [256]vm.DynInst
	for i := 0; i < n; {
		if i%markEvery == 0 {
			rec.marks = append(rec.marks, mark{off: cur.off, prev: cur.prev})
		}
		k := min(len(batch), n-i, markEvery-i%markEvery)
		if err := cur.decode(batch[:k]); err != nil {
			return hdr, recording{}, err
		}
		i += k
	}
	if cur.off != len(body) {
		return hdr, recording{}, fmt.Errorf("%w: %d bytes after the last record", ErrCorrupt, len(body)-cur.off)
	}
	rec.end = cur.prev
	return hdr, rec, nil
}

// entry is one key's recording. Recording is singleflight: the first
// requester publishes a flight channel and records outside the lock;
// every concurrent requester for the same key waits on that channel
// and then replays the finished recording. mu guards only the
// published fields, never long work.
type entry struct {
	mu       sync.Mutex
	rec      recording
	complete bool
	m        *vm.Machine // live recorder, kept until complete for extension
	// flight is non-nil while a recorder is active and closed when it
	// publishes; waiters block on it instead of piling onto mu.
	flight chan struct{}
}

// satisfies reports whether a recording of n records can serve a
// consumer that may pull up to need instructions (need == 0 means "the
// whole run").
func satisfies(n int, complete bool, need uint64) bool {
	if complete {
		return true
	}
	return need > 0 && uint64(n) >= need
}

// maxReserve caps the records a recording reserves room for before it
// steps. Every benchmark recording fits under it (the largest needs
// 2,000,176 records), so each takes one allocation; past the cap the
// recording grows by append as it steps, so a huge requested budget
// claims no more memory up front than this.
const maxReserve = 1 << 22

// reserveBytes is the room a recording reserves per record it expects.
// The six benchmarks encode to 5.6–7.3 bytes per record, so their
// recordings never outgrow the reservation; trimmed drops what a
// recording leaves unused.
const reserveBytes = 8

// Cache records each workload's dynamic instruction stream once and
// hands out replays that share the recording's bytes. The zero value
// is ready to use; Shared returns the process-wide instance the
// simulator uses.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry

	hits, misses, dedupWaits, diskLoads, diskWrites, recorded, bytes atomic.Uint64
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
		Bytes:         c.bytes.Load(),
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

// Source returns a replay of the key's stream, recording it first if
// no sufficient recording exists. need is the largest number of
// instructions the consumer may pull (0 = the whole run, which
// requires the program to halt); build constructs a fresh functional
// machine positioned at the program's first instruction. When dir is
// non-empty, recordings are loaded from and persisted to
// <dir>/<workload>-seed<seed>-n<insts>.psbtrace.
//
// Concurrent calls with the same key deduplicate on the recording
// (singleflight): exactly one caller records while the rest wait for
// the published recording, then every caller replays the same bytes
// without copying them. The recorder does all of its work — workload
// construction, functional stepping, disk I/O — outside the entry
// lock, so waiters never contend a mutex held across a simulation.
func (c *Cache) Source(k Key, need uint64, dir string, build func() *vm.Machine) (*Replay, error) {
	e := c.entry(k)
	waited := false
	for {
		e.mu.Lock()
		if satisfies(e.rec.n, e.complete, need) {
			r := e.rec.replay()
			e.mu.Unlock()
			c.hits.Add(1)
			return r, nil
		}
		if e.flight != nil {
			// Another goroutine is recording this key: wait for its
			// publication instead of recording a duplicate stream.
			done := e.flight
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
		e.flight = make(chan struct{})
		rec, complete, m := e.rec, e.complete, e.m
		e.m = nil
		e.mu.Unlock()

		return c.record(e, k, need, dir, build, rec, complete, m)
	}
}

// record runs one singleflight recording round: it (re)builds or
// extends the functional machine, steps it to the needed length,
// optionally persists the stream, and publishes the result to the
// entry — waking every waiter — even if build or Step panics (the
// panic propagates to this caller alone; waiters retry and surface
// the same deterministic failure themselves).
func (c *Cache) record(e *entry, k Key, need uint64, dir string,
	build func() *vm.Machine, rec recording, complete bool, m *vm.Machine) (*Replay, error) {
	done, held := e.flight, rec.size()
	defer func() {
		e.mu.Lock()
		e.rec, e.complete, e.m = rec, complete, m
		e.flight = nil
		e.mu.Unlock()
		c.bytes.Add(rec.size() - held) // wraps to a subtraction when it shrank
		close(done)
	}()

	if dir != "" && rec.n == 0 && m == nil {
		if loaded, loadedComplete, lerr := c.load(k, dir); lerr == nil {
			if satisfies(loaded.n, loadedComplete, need) {
				c.diskLoads.Add(1)
				rec, complete = loaded, loadedComplete
				return rec.replay(), nil
			}
			// The file is too short for this consumer: re-record from
			// scratch (the functional machine cannot resume mid-file).
		}
	}

	c.misses.Add(1)
	if m == nil {
		// Either nothing recorded yet, or a short disk trace was
		// discarded above; start a fresh recorder.
		rec, complete = recording{}, false
		m = build()
	}
	// Reserve room for the need (up to maxReserve records) before
	// stepping, so a fresh recording allocates once and an extension
	// reallocates at most once — not at all when the slack it already
	// has holds the new records, which then append in place.
	if want := min(need, maxReserve); want > uint64(rec.n) {
		rec.reserve(want - uint64(rec.n))
	}
	start := rec.n
	for !complete && (need == 0 || uint64(rec.n) < need) {
		d, serr := m.Step()
		if serr != nil {
			// HALT or a functional fault: the stream ends here for
			// every consumer, exactly as a live source would end.
			complete = true
			break
		}
		rec.append(&d)
	}
	c.recorded.Add(uint64(rec.n - start))
	rec.data, rec.marks = trimmed(rec.data), trimmed(rec.marks)
	if complete {
		m = nil // free the guest machine; the recording is final
	}
	if dir != "" {
		if err := c.store(k, dir, &rec, complete); err != nil {
			return nil, err
		}
	}
	return rec.replay(), nil
}

// load reads a persisted recording, returning an error when the file
// is missing, unreadable, corrupt, or recorded under a different key.
// The recording keeps the file's bytes.
func (c *Cache) load(k Key, dir string) (recording, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, k.filename()))
	if err != nil {
		return recording{}, false, err
	}
	hdr, rec, err := parse(data)
	if err != nil {
		return recording{}, false, fmt.Errorf("trace: %s: %w", k.filename(), err)
	}
	if hdr.Workload != k.Workload || hdr.Seed != k.Seed || hdr.MaxInsts != k.MaxInsts {
		return recording{}, false, fmt.Errorf("trace: %s was recorded for %s/seed=%d/n=%d",
			k.filename(), hdr.Workload, hdr.Seed, hdr.MaxInsts)
	}
	return rec, hdr.Complete, nil
}

// store persists a recording via write-to-temp-then-rename, so a
// crashed or concurrent writer never leaves a torn file behind.
func (c *Cache) store(k Key, dir string, rec *recording, complete bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	tmp, err := os.CreateTemp(dir, k.filename()+".tmp*")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer os.Remove(tmp.Name())
	err = writeFile(tmp, Header{
		Workload: k.Workload, Seed: k.Seed, MaxInsts: k.MaxInsts,
		Count: uint64(rec.n), Complete: complete,
	}, rec.data)
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

// Replay is a cursor over a recording: it holds the shared record
// bytes, a position and the delta context at that position, and
// decodes records on demand. It structurally satisfies the timing
// core's Source interface (Next) and batch path (Fill), and the
// functional executor's seekable stream (Fill, Seek, Len), without
// importing them. Constructing a replay copies a few words, never the
// trace; a Replay is not safe for concurrent use, so each consumer
// takes its own (From).
type Replay struct {
	cursor
	marks  []mark
	n, pos int
}

// Fill decodes the next records into dst and returns how many it
// decoded: len(dst), or fewer at the end of the recording (0 once it
// is exhausted).
func (r *Replay) Fill(dst []vm.DynInst) int {
	k := min(len(dst), r.n-r.pos)
	if err := r.decode(dst[:k]); err != nil {
		// Every recording was encoded in this process or validated in
		// full when it was loaded, so this is a bug, not bad input.
		panic(fmt.Sprintf("trace: decoding a validated recording: %v", err))
	}
	r.pos += k
	return k
}

// Next implements the dynamic-instruction source contract.
func (r *Replay) Next() (vm.DynInst, bool) {
	var d [1]vm.DynInst
	if r.Fill(d[:]) == 0 {
		return vm.DynInst{}, false
	}
	return d[0], true
}

// Len returns the number of instructions in the recording.
func (r *Replay) Len() int { return r.n }

// Seek repositions the replay pos records in (clamped to the recording
// length): it starts from the nearest mark at or before pos and
// decodes the records between.
func (r *Replay) Seek(pos uint64) {
	p := int(min(pos, uint64(r.n)))
	r.off, r.prev, r.pos = 0, prevState{}, 0
	if m := min(p/markEvery, len(r.marks)-1); m >= 0 {
		r.off, r.prev, r.pos = r.marks[m].off, r.marks[m].prev, m*markEvery
	}
	var skip [64]vm.DynInst
	for r.pos < p {
		r.Fill(skip[:min(len(skip), p-r.pos)])
	}
}

// From returns a new Replay over the same recording, positioned pos
// records in (clamped to the recording length). The sampled-simulation
// driver uses it to start detailed measurement intervals mid-stream.
func (r *Replay) From(pos uint64) *Replay {
	c := *r
	c.Seek(pos)
	return &c
}

// Rest decodes the records from the replay's position to its end into
// a new slice and leaves the replay where it is. No simulator path
// calls it: it remains for the benchmark module's functional probe,
// which runs an executor over a decoded slice.
func (r *Replay) Rest() []vm.DynInst {
	c := *r
	out := make([]vm.DynInst, r.n-r.pos)
	c.Fill(out)
	return out
}
