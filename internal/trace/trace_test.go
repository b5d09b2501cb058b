package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workload"
)

// record steps a fresh functional machine n times (or to halt) and
// returns the committed stream — the reference the codec must
// reproduce exactly.
func record(t *testing.T, m *vm.Machine, n uint64) []vm.DynInst {
	t.Helper()
	var out []vm.DynInst
	for n == 0 || uint64(len(out)) < n {
		d, err := m.Step()
		if err != nil {
			break
		}
		out = append(out, d)
	}
	return out
}

// countingLoop returns a machine running a small halting loop with a
// load in the body, so streams mix ALU, memory and branch records.
func countingLoop(iters int64) *vm.Machine {
	b := asm.New()
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), 1)
	b.Li(isa.R(3), iters)
	b.Li(isa.R(4), 0x7000)
	top := b.Here("top")
	b.Ld(isa.R(5), isa.R(4), 0)
	b.Add(isa.R(1), isa.R(1), isa.R(2))
	b.Addi(isa.R(2), isa.R(2), 1)
	b.Bge(isa.R(3), isa.R(2), top)
	b.Halt()
	return vm.New(b.MustBuild(), vm.NewGuestMem())
}

func encodeAll(t *testing.T, hdr Header, insts []vm.DynInst) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr.Count = uint64(len(insts))
	if err := writeTrace(&buf, hdr, insts); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTrip is the codec property test: for every workload's real
// stream and for a synthetic halting program, encode → decode must
// reproduce the exact DynInst sequence and header.
func TestRoundTrip(t *testing.T) {
	streams := map[string][]vm.DynInst{
		"loop": record(t, countingLoop(50), 0),
	}
	for _, w := range workload.All() {
		streams[w.Name] = record(t, w.Build(1), 2000)
	}
	for name, insts := range streams {
		hdr := Header{Workload: name, Seed: 1, MaxInsts: 2000, Complete: true}
		enc := encodeAll(t, hdr, insts)
		dec, err := NewDecoder(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		got := dec.Header()
		hdr.Count = uint64(len(insts))
		if got != hdr {
			t.Fatalf("%s: header round-trip: got %+v want %+v", name, got, hdr)
		}
		out, err := dec.ReadAll(int64(len(enc)))
		if err != nil {
			t.Fatalf("%s: ReadAll: %v", name, err)
		}
		if !reflect.DeepEqual(out, insts) {
			t.Fatalf("%s: decoded stream differs (%d vs %d records)", name, len(out), len(insts))
		}
		if cap(out) != len(insts) {
			t.Errorf("%s: ReadAll reserved %d records for %d", name, cap(out), len(insts))
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("%s: want io.EOF after last record, got %v", name, err)
		}
		// 32 bytes raw per DynInst; the delta encoding should stay
		// under 8 bytes/record even on the branchy pointer chasers.
		if len(insts) > 0 && len(enc) > len(insts)*8 {
			t.Errorf("%s: encoding is not compact: %d bytes for %d records", name, len(enc), len(insts))
		}
	}
}

// TestDecoderTruncation feeds every proper prefix of a valid encoding
// to the decoder: it must fail with ErrCorrupt (or deliver fewer
// records) and never panic, and the error must be sticky.
func TestDecoderTruncation(t *testing.T) {
	insts := record(t, countingLoop(10), 0)
	enc := encodeAll(t, Header{Workload: "loop", Seed: 1, MaxInsts: 0, Complete: true}, insts)
	for cut := 0; cut < len(enc); cut++ {
		dec, err := NewDecoder(bytes.NewReader(enc[:cut]))
		if err != nil {
			continue // truncated header: fine, as long as no panic
		}
		n := 0
		for {
			_, err := dec.Next()
			if err != nil {
				if _, err2 := dec.Next(); err2 != err {
					t.Fatalf("cut=%d: error not sticky: %v then %v", cut, err, err2)
				}
				break
			}
			if n++; n > len(insts) {
				t.Fatalf("cut=%d: decoder produced more records than encoded", cut)
			}
		}
	}
}

// TestCacheSingleRecorder launches many goroutines racing for the same
// key: exactly one build must happen and every replay must deliver the
// identical stream.
func TestCacheSingleRecorder(t *testing.T) {
	var c Cache
	var builds atomic.Int32
	k := Key{Workload: "loop", Seed: 1, MaxInsts: 100}
	// need=100 stops the recorder at 100 instructions, well short of
	// the loop's halt.
	want := record(t, countingLoop(50), 100)

	const goroutines = 8
	var wg sync.WaitGroup
	streams := make([][]vm.DynInst, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := c.Source(k, 100, "", func() *vm.Machine {
				builds.Add(1)
				return countingLoop(50)
			})
			if err != nil {
				t.Errorf("Source: %v", err)
				return
			}
			for {
				d, ok := r.Next()
				if !ok {
					break
				}
				streams[g] = append(streams[g], d)
			}
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("want exactly 1 recording, got %d", n)
	}
	for g, s := range streams {
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("goroutine %d replayed a different stream (%d vs %d records)", g, len(s), len(want))
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats: want 1 miss / %d hits, got %+v", goroutines-1, st)
	}
}

// TestCacheExtension asks for a short prefix first and a longer one
// second: the recorder must extend the same recording incrementally,
// and the result must match a fresh straight-line recording.
func TestCacheExtension(t *testing.T) {
	var c Cache
	build := func() *vm.Machine { return countingLoop(1000) }
	k := Key{Workload: "loop", Seed: 1, MaxInsts: 100}

	short, err := c.Source(k, 100, "", build)
	if err != nil {
		t.Fatal(err)
	}
	if short.Len() != 100 {
		t.Fatalf("short recording: want 100 insts, got %d", short.Len())
	}
	long, err := c.Source(k, 300, "", build)
	if err != nil {
		t.Fatal(err)
	}
	want := record(t, countingLoop(1000), 300)
	got := make([]vm.DynInst, 0, 300)
	for {
		d, ok := long.Next()
		if !ok {
			break
		}
		got = append(got, d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extended recording diverges from straight-line recording")
	}
	// Replays of a now-sufficient recording must not rebuild.
	if _, err := c.Source(k, 200, "", func() *vm.Machine {
		t.Fatal("unexpected rebuild")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheComplete: when the program halts inside the budget the
// recording is complete and satisfies any need, including 0 (whole
// run).
func TestCacheComplete(t *testing.T) {
	var c Cache
	k := Key{Workload: "loop", Seed: 1, MaxInsts: 10_000}
	r, err := c.Source(k, 10_000, "", func() *vm.Machine { return countingLoop(10) })
	if err != nil {
		t.Fatal(err)
	}
	want := record(t, countingLoop(10), 0)
	if r.Len() != len(want) {
		t.Fatalf("want %d insts to halt, got %d", len(want), r.Len())
	}
	// The recorder reserved the whole need of 10,000 records; a
	// recording that halted far short of it keeps only its own length.
	if got := cap(r.Rest()); got != r.Len() {
		t.Fatalf("halted recording pins capacity %d for %d records", got, r.Len())
	}
	if _, err := c.Source(k, 0, "", func() *vm.Machine {
		t.Fatal("complete recording must satisfy need=0 without rebuilding")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// heapBytes returns the bytes fn allocated on the heap.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCacheRecordingReservesOnce: a fresh recording reserves its whole
// need in one backing allocation, and extending it reallocates exactly
// once, straight to the new need. Growing by append instead would
// allocate about twice the final slice along the way, so a heap total
// within an eighth of one slice proves a single allocation. The guest
// machine is built before measuring.
func TestCacheRecordingReservesOnce(t *testing.T) {
	const first, second = 1 << 14, 3 << 14
	rec := uint64(unsafe.Sizeof(vm.DynInst{}))
	m := countingLoop(1 << 20)
	build := func() *vm.Machine { return m }
	var c Cache
	k := Key{Workload: "loop", Seed: 1, MaxInsts: first}

	for _, need := range []uint64{first, second} {
		var r *Replay
		var err error
		got := heapBytes(func() { r, err = c.Source(k, need, "", build) })
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != int(need) || cap(r.Rest()) != int(need) {
			t.Fatalf("need %d: recorded %d records with capacity %d", need, r.Len(), cap(r.Rest()))
		}
		if want := need * rec; got < want || got > want+want/8 {
			t.Errorf("need %d: allocated %d bytes, want one %d-byte slice", need, got, want)
		}
	}
	if st := c.Stats(); st.RecordedInsts != second || st.Misses != 2 {
		t.Fatalf("want 2 recordings of %d insts in all, got %+v", second, st)
	}
}

// TestDecoderRejectsSeqFlag: bit 2 of a record's flags once flagged a
// sequence-number gap. Records no longer carry a sequence number, so
// the decoder treats the bit as corrupt input.
func TestDecoderRejectsSeqFlag(t *testing.T) {
	insts := record(t, countingLoop(2), 0)
	enc := encodeAll(t, Header{Workload: "loop", Complete: true}, insts)
	dec, err := NewDecoder(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	// Record 1 starts where the decoder stopped; its flags byte
	// follows the opcode byte.
	enc[dec.offset()+1] |= 1 << 2
	dec, err = NewDecoder(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	dec.Next()
	if _, err := dec.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flag bit 2: want ErrCorrupt, got %v", err)
	}
}

// TestCacheDisk round-trips a recording through a trace directory: a
// second cache (fresh process, in effect) must load it instead of
// re-recording, and a too-short file must be discarded and re-recorded.
func TestCacheDisk(t *testing.T) {
	dir := t.TempDir()
	k := Key{Workload: "loop", Seed: 7, MaxInsts: 100}
	build := func() *vm.Machine { return countingLoop(1000) }

	var c1 Cache
	r1, err := c1.Source(k, 100, dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("want 1 disk write, got %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, k.filename())); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}

	var c2 Cache
	r2, err := c2.Source(k, 100, dir, func() *vm.Machine {
		t.Fatal("stream on disk; must not re-record")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskLoads != 1 || st.Misses != 0 {
		t.Fatalf("want 1 disk load and no misses, got %+v", st)
	}
	// The loader reserves the file's records once: no slack past them.
	if got := cap(r2.Rest()); got != r2.Len() {
		t.Fatalf("disk load reserved %d records for %d", got, r2.Len())
	}
	if !reflect.DeepEqual(drain(r1), drain(r2)) {
		t.Fatal("disk round-trip changed the stream")
	}

	// A cache needing more than the file holds must fall back to
	// recording.
	var c3 Cache
	r3, err := c3.Source(k, 200, dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Len() < 200 {
		t.Fatalf("want >= 200 insts after re-record, got %d", r3.Len())
	}
	if st := c3.Stats(); st.Misses != 1 {
		t.Fatalf("want a recording miss on the short file, got %+v", st)
	}

	// A corrupt file must not poison the cache either.
	if err := os.WriteFile(filepath.Join(dir, k.filename()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var c4 Cache
	r4, err := c4.Source(k, 100, dir, build)
	if err != nil || r4.Len() < 100 {
		t.Fatalf("corrupt file: want clean re-record, got len=%d err=%v", r4.Len(), err)
	}
}

// TestCacheDiskKeyMismatch: a file whose header disagrees with its key
// is rejected and re-recorded rather than silently replayed.
func TestCacheDiskKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	k := Key{Workload: "loop", Seed: 1, MaxInsts: 50}
	other := Key{Workload: "loop", Seed: 2, MaxInsts: 50}

	var c1 Cache
	if _, err := c1.Source(k, 50, dir, func() *vm.Machine { return countingLoop(100) }); err != nil {
		t.Fatal(err)
	}
	// Masquerade k's recording as other's.
	if err := os.Rename(filepath.Join(dir, k.filename()), filepath.Join(dir, other.filename())); err != nil {
		t.Fatal(err)
	}
	var c2 Cache
	var built atomic.Int32
	if _, err := c2.Source(other, 50, dir, func() *vm.Machine {
		built.Add(1)
		return countingLoop(100)
	}); err != nil {
		t.Fatal(err)
	}
	if built.Load() != 1 {
		t.Fatal("mismatched trace file must force a re-record")
	}
}

// drain collects a replay's remaining records.
func drain(r *Replay) []vm.DynInst {
	var out []vm.DynInst
	for {
		d, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

// TestLimit caps a source.
func TestLimit(t *testing.T) {
	var c Cache
	r, err := c.Source(Key{Workload: "loop", MaxInsts: 100}, 100, "",
		func() *vm.Machine { return countingLoop(1000) })
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	lim := Limit(r, 7)
	for {
		if _, ok := lim.Next(); !ok {
			break
		}
		n++
	}
	if n != 7 {
		t.Fatalf("Limit(7): got %d records", n)
	}
}

// TestDecoderSource streams a file through the Source adapter.
func TestDecoderSource(t *testing.T) {
	insts := record(t, countingLoop(20), 0)
	enc := encodeAll(t, Header{Workload: "loop", Complete: true}, insts)
	dec, err := NewDecoder(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	src := &DecoderSource{D: dec}
	var got []vm.DynInst
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, d)
	}
	if !reflect.DeepEqual(got, insts) {
		t.Fatal("DecoderSource stream differs")
	}
	if err := src.Err(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}
