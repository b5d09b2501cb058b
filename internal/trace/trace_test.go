package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
func record(t testing.TB, m *vm.Machine, n uint64) []vm.DynInst {
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

// stridedLoop returns a machine whose loop loads at a 2^27-byte
// stride: the load's address delta takes a five-byte varint, so the
// loop encodes to about 7.3 bytes per record — inside the recorder's
// reservation, but close enough to it that a recording keeps its slack.
func stridedLoop(iters int64) *vm.Machine {
	const base, stride = 0x7000, 1 << 27
	b := asm.New()
	b.Li(isa.R(3), base+iters*stride)
	b.Li(isa.R(4), base)
	b.Li(isa.R(6), stride)
	top := b.Here("top")
	b.Ld(isa.R(5), isa.R(4), 0)
	b.Add(isa.R(4), isa.R(4), isa.R(6))
	b.Blt(isa.R(4), isa.R(3), top)
	b.Halt()
	return vm.New(b.MustBuild(), vm.NewGuestMem())
}

// encodeAll encodes a whole stream as a .psbtrace file through the
// recorder's record encoder.
func encodeAll(t testing.TB, hdr Header, insts []vm.DynInst) []byte {
	t.Helper()
	var rec recording
	for i := range insts {
		rec.append(&insts[i])
	}
	hdr.Count = uint64(len(insts))
	var buf bytes.Buffer
	if err := writeFile(&buf, hdr, rec.data); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// fill drains a replay through Fill in batches of size batch.
func fill(r *Replay, batch int) []vm.DynInst {
	var out []vm.DynInst
	buf := make([]vm.DynInst, batch)
	for {
		n := r.Fill(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestRoundTrip is the codec property test: for every workload's real
// stream and for a synthetic halting program, encode → load must
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
		got, rec, err := parse(enc)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		hdr.Count = uint64(len(insts))
		if got != hdr {
			t.Fatalf("%s: header round-trip: got %+v want %+v", name, got, hdr)
		}
		r := rec.replay()
		if out := fill(r, 256); !reflect.DeepEqual(out, insts) {
			t.Fatalf("%s: decoded stream differs (%d vs %d records)", name, len(out), len(insts))
		}
		if want := (len(insts) + markEvery - 1) / markEvery; len(rec.marks) != want || cap(rec.marks) != want {
			t.Errorf("%s: parse kept %d marks (capacity %d) for %d records, want %d",
				name, len(rec.marks), cap(rec.marks), len(insts), want)
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("%s: replay yields a record past the last one", name)
		}
		// 32 bytes raw per DynInst; the delta encoding should stay
		// under 8 bytes/record even on the branchy pointer chasers.
		if len(insts) > 0 && len(enc) > len(insts)*8 {
			t.Errorf("%s: encoding is not compact: %d bytes for %d records", name, len(enc), len(insts))
		}
	}
}

// TestDecoderTruncation feeds every proper prefix of a valid encoding
// to the loader and its record bytes to the decoder: each must fail
// with ErrCorrupt, never panic, and leave the decoder's cursor where
// it was.
func TestDecoderTruncation(t *testing.T) {
	insts := record(t, countingLoop(10), 0)
	enc := encodeAll(t, Header{Workload: "loop", Seed: 1, MaxInsts: 0, Complete: true}, insts)
	_, body, err := parseHeaderBody(enc)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := parse(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: parse: want ErrCorrupt, got %v", cut, err)
		}
	}
	for cut := 0; cut < len(body); cut++ {
		cur := cursor{data: body[:cut]}
		if err := cur.decode(make([]vm.DynInst, len(insts))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("body cut=%d: decode: want ErrCorrupt, got %v", cut, err)
		}
		if cur.off != 0 {
			t.Fatalf("body cut=%d: a failed decode moved the cursor to byte %d", cut, cur.off)
		}
	}
}

// parseHeaderBody splits an encoded file into its header and record
// bytes.
func parseHeaderBody(enc []byte) (Header, []byte, error) {
	hdr, off, err := parseHeader(enc)
	if err != nil {
		return hdr, nil, err
	}
	return hdr, enc[off:], nil
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
	if got := drain(long); !reflect.DeepEqual(got, want) {
		t.Fatalf("extended recording diverges from straight-line recording")
	}
	// The short replay still sees exactly its own prefix.
	if got := drain(short); !reflect.DeepEqual(got, want[:100]) {
		t.Fatalf("extension changed an earlier replay")
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
	// The recorder reserved room for the whole need of 10,000 records;
	// a recording that halted far short of it keeps only its own bytes.
	if rec := c.entries[k].rec; cap(rec.data) != len(rec.data) {
		t.Fatalf("halted recording pins %d bytes of capacity for %d", cap(rec.data), len(rec.data))
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

// TestCacheRecordingReservesOnce pins the reservation rule. A fresh
// recording reserves 8 bytes per needed record in one allocation, and
// an extension reallocates once, by 8 bytes per new record.
// The counting loop encodes to 5.75 bytes per record, so neither
// outgrows its reservation, and each ends more than an eighth short of
// it and is trimmed to one copy of its bytes. The heap total must be
// the reservation plus that copy: growing by append, or reserving the
// 32 bytes of a decoded record, allocates well past it. The guest
// machine is built before measuring.
func TestCacheRecordingReservesOnce(t *testing.T) {
	const first, second = 1 << 14, 3 << 14
	m := countingLoop(1 << 20)
	build := func() *vm.Machine { return m }
	var c Cache
	k := Key{Workload: "loop", Seed: 1, MaxInsts: first}

	var held uint64 // bytes of the recording being extended
	for _, need := range []uint64{first, second} {
		var r *Replay
		var err error
		prevN := 0
		if e := c.entries[k]; e != nil {
			prevN = e.rec.n
		}
		got := heapBytes(func() { r, err = c.Source(k, need, "", build) })
		if err != nil {
			t.Fatal(err)
		}
		rec := c.entries[k].rec
		if r.Len() != int(need) || rec.n != int(need) {
			t.Fatalf("need %d: recorded %d records", need, r.Len())
		}
		if cap(rec.data) != len(rec.data) {
			t.Fatalf("need %d: recording pins %d bytes of capacity for %d", need, cap(rec.data), len(rec.data))
		}
		want := held + (need-uint64(prevN))*8 + uint64(len(rec.data))
		if got < want || got > want+want/16 {
			t.Errorf("need %d: allocated %d bytes, want one %d-byte reservation and one %d-byte trim",
				need, got, want-uint64(len(rec.data)), len(rec.data))
		}
		held = uint64(len(rec.data))
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
	_, body, err := parseHeaderBody(enc)
	if err != nil {
		t.Fatal(err)
	}
	cur := cursor{data: body}
	if err := cur.decode(make([]vm.DynInst, 1)); err != nil {
		t.Fatal(err)
	}
	// Record 1 starts where the decoder stopped; its flags byte
	// follows the opcode byte.
	body[cur.off+1] |= 1 << 2
	if _, _, err := parse(enc); !errors.Is(err, ErrCorrupt) {
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
	file, err := os.ReadFile(filepath.Join(dir, k.filename()))
	if err != nil {
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
	if !reflect.DeepEqual(drain(r1), drain(r2)) {
		t.Fatal("disk round-trip changed the stream")
	}
	// Both caches hold the file's record bytes — its size less the
	// header — plus one mark for the 100 records.
	_, body, err := parseHeaderBody(file)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(body)) + markBytes
	for i, c := range []*Cache{&c1, &c2} {
		if got := c.Stats().Bytes; got != want {
			t.Errorf("cache %d holds %d bytes, want %d", i+1, got, want)
		}
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

// TestCacheDiskTrailingBytes: a file whose header's records end before
// the file does is corrupt — its extra bytes would otherwise be kept
// in memory and wasted — so it is re-recorded and rewritten clean.
func TestCacheDiskTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	k := Key{Workload: "loop", Seed: 7, MaxInsts: 100}
	build := func() *vm.Machine { return countingLoop(1000) }
	var c1 Cache
	if _, err := c1.Source(k, 100, dir, build); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.filename())
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, "trailing+11"...), 0o644); err != nil {
		t.Fatal(err)
	}

	var c2 Cache
	r, err := c2.Source(k, 100, dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskLoads != 0 || st.Misses != 1 || st.DiskWrites != 1 {
		t.Fatalf("file with trailing bytes: want a re-record and a rewrite, got %+v", st)
	}
	if r.Len() != 100 {
		t.Fatalf("re-recorded %d records, want 100", r.Len())
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("rewritten file differs from a clean recording (err %v)", err)
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

// TestParentFixture pins the file format across versions: a trace the
// earlier slice-backed recorder wrote (health, seed 1, 2,000
// instructions) loads without re-recording, replays exactly a fresh
// recording's records, and a fresh recording for the same key writes a
// byte-identical file.
func TestParentFixture(t *testing.T) {
	const name = "health-seed1-n2000.psbtrace"
	fixture, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Workload: "health", Seed: 1, MaxInsts: 2000}
	if k.filename() != name {
		t.Fatalf("key names its file %s, want %s", k.filename(), name)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	var loaded Cache
	r, err := loaded.Source(k, 2000, dir, func() *vm.Machine {
		t.Fatal("fixture on disk; must not re-record")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := loaded.Stats(); st.DiskLoads != 1 || st.Misses != 0 || st.DiskWrites != 0 {
		t.Fatalf("want one disk load and nothing else, got %+v", st)
	}
	if got, want := drain(r), record(t, w.Build(1), 2000); !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture replays %d records that differ from a fresh recording of %d", len(got), len(want))
	}

	out := t.TempDir()
	var fresh Cache
	if _, err := fresh.Source(k, 2000, out, func() *vm.Machine { return w.Build(1) }); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(out, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, fixture) {
		t.Fatalf("fresh recording wrote %d bytes that differ from the %d-byte fixture", len(written), len(fixture))
	}
}

// TestReplaySeek: From(k) followed by Fill in any batch size yields
// exactly what Next yields from k, at positions on a mark, either side
// of one, inside the first interval and at the end.
func TestReplaySeek(t *testing.T) {
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	insts := record(t, w.Build(1), 3*markEvery+100)
	_, rec, err := parse(encodeAll(t, Header{Workload: "health"}, insts))
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(insts))
	for _, k := range []uint64{0, 1, markEvery - 1, markEvery, markEvery + 1,
		2*markEvery - 1, 2 * markEvery, 2*markEvery + 1, 3 * markEvery, n - 1, n, n + 5} {
		ref := rec.replay()
		for i := uint64(0); i < k; i++ {
			ref.Next()
		}
		want := drain(ref)
		if k <= n && !slices.Equal(want, insts[k:]) {
			t.Fatalf("k=%d: Next from k differs from the recorded stream", k)
		}
		for _, batch := range []int{1, 7, 256} {
			if got := fill(rec.replay().From(k), batch); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d batch=%d: From+Fill gave %d records, Next %d", k, batch, len(got), len(want))
			}
		}
	}
}

// TestCacheConcurrentExtension: replays taken before an extension stay
// valid while it runs. Goroutines replay and seek the key's stream
// while another goroutine extends it, first in place into the slack the
// first recording kept and then by reallocating; every record anyone
// decodes must match a straight-line recording.
func TestCacheConcurrentExtension(t *testing.T) {
	const first = 6000
	build := func() *vm.Machine { return stridedLoop(1 << 20) }
	want := record(t, build(), 4*first)
	var c Cache
	k := Key{Workload: "strided", Seed: 1, MaxInsts: first}
	base, err := c.Source(k, first, "", build)
	if err != nil {
		t.Fatal(err)
	}
	e := c.entries[k]
	e.mu.Lock()
	rec0 := e.rec
	e.mu.Unlock()
	room := (cap(rec0.data) - len(rec0.data)) / reserveBytes
	if room < 2 {
		t.Fatalf("first recording kept room for %d more records; the in-place case needs some", room)
	}
	needs := []uint64{first + uint64(room)/2, 2 * first, 4 * first}

	check := func(r *Replay, from uint64, batch int) {
		got := fill(r.From(from), batch)
		if end := from + uint64(len(got)); end > uint64(len(want)) || !reflect.DeepEqual(got, want[from:end]) {
			t.Errorf("replay from %d (batch %d) diverged from the recorded stream", from, batch)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				from := uint64((i*markEvery + g*331) % first)
				check(base, from, 1+g*85)
				if r, err := c.Source(k, first, "", build); err != nil {
					t.Error(err)
				} else {
					check(r, from, 256)
				}
			}
		}(g)
	}
	for i, need := range needs {
		r, err := c.Source(k, need, "", build)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != int(need) {
			t.Fatalf("extension to %d recorded %d", need, r.Len())
		}
		e.mu.Lock()
		inPlace := unsafe.SliceData(e.rec.data) == unsafe.SliceData(rec0.data)
		e.mu.Unlock()
		if inPlace != (i == 0) {
			t.Fatalf("extension to %d: appended in place = %v, want %v", need, inPlace, i == 0)
		}
		check(r, 0, 256)
	}
	close(done)
	wg.Wait()
	if got := fill(base, 256); !reflect.DeepEqual(got, want[:first]) {
		t.Fatal("a replay taken before the extensions no longer sees its own prefix")
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
