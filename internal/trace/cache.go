package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicfile"
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
	// Bytes is the memory the cache's recordings hold: the capacity of
	// their chunks (record bytes and seek marks), the chunk headers and
	// their programs.
	Bytes uint64
}

// markEvery is the spacing, in records, of a chunk's seek marks.
const markEvery = 1024

// A mark lets a replay start decoding at a chunk's record i*markEvery
// without decoding the records before it: the offset of that record in
// the chunk's bytes and the delta context that decodes it.
type mark struct {
	off  int
	prev prevState
}

// markBytes is the memory one mark takes.
const markBytes = uint64(unsafe.Sizeof(mark{}))

// A chunk is a run of a recording's records: their bytes, and a seek
// mark every markEvery records from its first, so marks[0] decodes the
// chunk's first record, at byte 0.
type chunk struct {
	data  []byte
	marks []mark
	first int // index of the chunk's first record in the recording
	n     int // records in the chunk
}

// chunkHeaderBytes is the memory one chunk's header takes.
const chunkHeaderBytes = uint64(unsafe.Sizeof(chunk{}))

// chunkBytes is the most a chunk holds. A chunk ends at a record
// boundary: the recorder seals it once one more record might not fit,
// so every chunk but a recording's last holds more than
// chunkBytes-maxRecordBytes bytes. chunkBytes is a multiple of the
// runtime's 8 KiB page, so a full chunk's allocation is its bytes.
const chunkBytes = 64 << 10

// A recording is one stream's records in their .psbtrace encoding —
// exactly the bytes a file holds after its header — cut into chunks.
// A recording value is a snapshot: extending it appends chunks past the
// length its earlier copies see and never changes a chunk, so a copy
// handed to a replay stays valid while the recorder extends the
// original.
type recording struct {
	prog   *program // the text the records are coded against
	chunks []chunk
	n      int       // records in all chunks
	end    prevState // delta context after the last record
}

// size is the memory a recording holds: its chunks' capacity, their
// headers and its program.
func (r *recording) size() uint64 {
	b := uint64(cap(r.chunks))*chunkHeaderBytes + r.prog.size()
	for _, c := range r.chunks {
		b += uint64(cap(c.data)) + uint64(cap(c.marks))*markBytes
	}
	return b
}

// replay returns a Replay positioned at the recording's first record.
func (r *recording) replay() *Replay {
	p := &Replay{cursor: cursor{prog: r.prog}, chunks: r.chunks, n: r.n}
	p.Seek(0)
	return p
}

// A recorder extends a recording. It encodes records into one open
// chunk, reused from chunk to chunk, and seals it into the recording —
// copied at its final size — once it is full and when the recorder
// stops. So every chunk holds only its bytes, and a recorder holds at
// most one chunk more than its recording.
type recorder struct {
	rec   recording
	buf   []byte // the open chunk's record bytes
	marks []mark // the open chunk's marks
	first int    // index of the open chunk's first record
}

// newRecorder returns a recorder that extends rec.
func newRecorder(rec recording) *recorder {
	return &recorder{rec: rec, first: rec.n}
}

// append encodes one stepped record onto the recording, or leaves the
// recording as it was and returns the encoder's error.
func (w *recorder) append(d *vm.DynInst) error {
	if w.buf == nil {
		w.buf = make([]byte, 0, chunkBytes)
		w.marks = make([]mark, 0, chunkBytes/minRecordBytes/markEvery)
	}
	marked := (w.rec.n-w.first)%markEvery == 0
	if marked {
		w.marks = append(w.marks, mark{off: len(w.buf), prev: w.rec.end})
	}
	buf, err := appendRecord(w.buf, &w.rec.end, w.rec.prog, d)
	if err != nil {
		if marked {
			w.marks = w.marks[:len(w.marks)-1]
		}
		return err
	}
	w.buf = buf
	w.rec.n++
	if len(w.buf) > chunkBytes-maxRecordBytes {
		w.seal()
	}
	return nil
}

// seal appends the open chunk to the recording, copied at its final
// size, and empties it.
func (w *recorder) seal() {
	if len(w.buf) == 0 {
		return
	}
	c := chunk{data: make([]byte, len(w.buf)), marks: make([]mark, len(w.marks)), first: w.first, n: w.rec.n - w.first}
	copy(c.data, w.buf)
	copy(c.marks, w.marks)
	w.rec.chunks = append(w.rec.chunks, c)
	w.buf, w.marks, w.first = w.buf[:0], w.marks[:0], w.rec.n
}

// recording seals the open chunk and returns the recording.
func (w *recorder) recording() recording {
	w.seal()
	return w.rec
}

// parse validates a whole .psbtrace file — its header, every record,
// and that the header's Count records end exactly at the end of the
// file — and returns its recording: one chunk that aliases data's
// record bytes, and a program that aliases its text. Count is checked
// against the bytes before anything is reserved from it, so a hostile
// header claims no more memory than the file bounds.
func parse(data []byte) (Header, recording, error) {
	hdr, prog, off, err := parseHeader(data)
	if err != nil {
		return hdr, recording{}, err
	}
	body := data[off:]
	if hdr.Count > uint64(len(body))/minRecordBytes {
		return hdr, recording{}, fmt.Errorf("%w: %d records cannot fit in %d bytes", ErrCorrupt, hdr.Count, len(body))
	}
	n := int(hdr.Count)
	c := chunk{data: body[:len(body):len(body)], marks: make([]mark, 0, (n+markEvery-1)/markEvery), n: n}
	cur := cursor{data: body, prog: prog}
	var batch [256]vm.DynInst
	for i := 0; i < n; {
		if i%markEvery == 0 {
			c.marks = append(c.marks, mark{off: cur.off, prev: cur.prev})
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
	rec := recording{prog: prog, n: n, end: cur.prev}
	if n > 0 {
		rec.chunks = []chunk{c}
	}
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
	prior, priorComplete := rec, complete
	if m == nil {
		// Either nothing recorded yet, or a short disk trace was
		// discarded above; start a fresh recorder.
		rec, complete = recording{}, false
		m = build()
		prog, err := programOf(m)
		if err != nil {
			rec, complete, m = prior, priorComplete, nil
			return nil, fmt.Errorf("trace: recording %s: %w", k.filename(), err)
		}
		rec.prog = prog
	}
	w := newRecorder(rec)
	var d vm.DynInst
	for !complete && (need == 0 || uint64(w.rec.n) < need) {
		if m.StepInto(&d) != nil {
			// HALT or a functional fault: the stream ends here for
			// every consumer, exactly as a live source would end.
			complete = true
			break
		}
		if err := w.append(&d); err != nil {
			// The stream has a record the codec cannot represent.
			// Publish what the entry held before, without the
			// machine, so a later request records afresh and fails
			// the same way instead of replaying a lossy stream.
			rec, complete, m = prior, priorComplete, nil
			return nil, fmt.Errorf("trace: recording %s: %w", k.filename(), err)
		}
	}
	c.recorded.Add(uint64(w.rec.n - rec.n))
	rec = w.recording()
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
	hdr := Header{
		Workload: k.Workload, Seed: k.Seed, MaxInsts: k.MaxInsts,
		Count: uint64(rec.n), Complete: complete,
	}
	err := atomicfile.Write(filepath.Join(dir, k.filename()), func(w io.Writer) error {
		return writeFile(w, hdr, rec)
	})
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", k.filename(), err)
	}
	c.diskWrites.Add(1)
	return nil
}

// Replay is a cursor over a recording: it holds the shared chunks, a
// position and the delta context at that position, and decodes records
// on demand. It structurally satisfies the timing core's Source
// interface (Next) and batch path (Fill), and the functional
// executor's seekable stream (Fill, Seek, Len), without importing
// them. Constructing a replay copies a few words, never the trace; a
// Replay is not safe for concurrent use, so each consumer takes its
// own (From).
type Replay struct {
	cursor // in chunks[ci]
	chunks []chunk
	ci     int
	n, pos int
}

// Fill decodes the next records into dst and returns how many it
// decoded: len(dst), or fewer at the end of the recording (0 once it
// is exhausted).
func (r *Replay) Fill(dst []vm.DynInst) int {
	k := min(len(dst), r.n-r.pos)
	for i := 0; i < k; {
		c := &r.chunks[r.ci]
		if end := c.first + c.n; r.pos < end {
			m := min(k-i, end-r.pos)
			if err := r.decode(dst[i : i+m]); err != nil {
				// Every recording was encoded in this process or
				// validated in full when it was loaded, so this is a
				// bug, not bad input.
				panic(fmt.Sprintf("trace: decoding a validated recording: %v", err))
			}
			i += m
			r.pos += m
			continue
		}
		// The chunk is done; the delta context carries over.
		r.ci++
		r.data, r.off = r.chunks[r.ci].data, 0
	}
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
	r.ci, r.data, r.off, r.prev, r.pos = 0, nil, 0, prevState{}, 0
	if len(r.chunks) == 0 {
		return
	}
	// The chunk holding record p, or the last one when p is the end.
	r.ci = min(sort.Search(len(r.chunks), func(i int) bool { return r.chunks[i].first+r.chunks[i].n > p }),
		len(r.chunks)-1)
	c := &r.chunks[r.ci]
	m := min((p-c.first)/markEvery, len(c.marks)-1)
	r.data, r.off, r.prev, r.pos = c.data, c.marks[m].off, c.marks[m].prev, c.first+m*markEvery
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
