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
// loop encodes to about 2.7 bytes per record and a chunk ends every
// 25,000 records or so.
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

// progOf returns the program a fresh machine's records are coded
// against.
func progOf(t testing.TB, m *vm.Machine) *program {
	t.Helper()
	p, err := programOf(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recordAll records a whole stream of p's through the recorder.
func recordAll(t testing.TB, p *program, insts []vm.DynInst) recording {
	t.Helper()
	w := newRecorder(recording{prog: p})
	for i := range insts {
		if err := w.append(&insts[i]); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return w.recording()
}

// encodeAll encodes a whole stream of p's as a .psbtrace file through
// the recorder.
func encodeAll(t testing.TB, hdr Header, p *program, insts []vm.DynInst) []byte {
	t.Helper()
	rec := recordAll(t, p, insts)
	hdr.Count = uint64(len(insts))
	var buf bytes.Buffer
	if err := writeFile(&buf, hdr, &rec); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// held returns the record bytes and the marks a recording's chunks
// hold, and reports whether each chunk's capacity is its length.
func held(rec recording) (data, marks int, exact bool) {
	exact = true
	for _, c := range rec.chunks {
		data += len(c.data)
		marks += len(c.marks)
		exact = exact && cap(c.data) == len(c.data) && cap(c.marks) == len(c.marks)
	}
	return data, marks, exact
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
// reproduce the exact DynInst sequence, header and program text.
func TestRoundTrip(t *testing.T) {
	type stream struct {
		prog  *program
		insts []vm.DynInst
	}
	streams := map[string]stream{
		"loop": {progOf(t, countingLoop(50)), record(t, countingLoop(50), 0)},
		"call": {progOf(t, callLoop(20)), record(t, callLoop(20), 0)},
	}
	for _, w := range workload.All() {
		streams[w.Name] = stream{progOf(t, w.Build(1)), record(t, w.Build(1), 2000)}
	}
	for name, st := range streams {
		insts := st.insts
		hdr := Header{Workload: name, Seed: 1, MaxInsts: 2000, Complete: true}
		enc := encodeAll(t, hdr, st.prog, insts)
		got, rec, err := parse(enc)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		hdr.Count = uint64(len(insts))
		if got != hdr {
			t.Fatalf("%s: header round-trip: got %+v want %+v", name, got, hdr)
		}
		if rec.prog.base != st.prog.base || !bytes.Equal(rec.prog.text, st.prog.text) ||
			!reflect.DeepEqual(rec.prog.table, st.prog.table) {
			t.Fatalf("%s: program text did not round-trip", name)
		}
		r := rec.replay()
		if out := fill(r, 256); !reflect.DeepEqual(out, insts) {
			t.Fatalf("%s: decoded stream differs (%d vs %d records)", name, len(out), len(insts))
		}
		data, marks, exact := held(rec)
		if want := (len(insts) + markEvery - 1) / markEvery; marks != want || !exact {
			t.Errorf("%s: parse kept %d marks for %d records, want %d, each chunk at its length", name, marks, len(insts), want)
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("%s: replay yields a record past the last one", name)
		}
		// 32 bytes raw per DynInst; with the static fields in the
		// program text, even a workload's start-up code, whose first
		// addresses are far apart, stays under 4 bytes per record.
		if len(insts) > 0 && data > len(insts)*4 {
			t.Errorf("%s: encoding is not compact: %d bytes for %d records", name, data, len(insts))
		}
	}
}

// callLoop returns a machine whose loop calls a function that stores
// and returns through JALR, so its stream holds every record kind:
// ALU, load, store, a branch both ways, JMP, JAL and JALR.
func callLoop(iters int64) *vm.Machine {
	b := asm.New()
	fn := b.NewLabel("fn")
	done := b.NewLabel("done")
	b.Li(isa.R(2), 0)
	b.Li(isa.R(3), iters)
	b.Li(isa.R(4), 0x9000)
	top := b.Here("top")
	b.Call(fn)
	b.Addi(isa.R(2), isa.R(2), 1)
	b.Bge(isa.R(2), isa.R(3), done)
	b.Jmp(top)
	b.Bind(done)
	b.Halt()
	b.Bind(fn)
	b.St(isa.R(2), isa.R(4), 0)
	b.Ld(isa.R(5), isa.R(4), 8)
	b.Addi(isa.R(4), isa.R(4), 64)
	b.Ret()
	return vm.New(b.MustBuild(), vm.NewGuestMem())
}

// TestDecoderTruncation feeds every proper prefix of a valid encoding
// to the loader and its record bytes to the decoder: each must fail
// with ErrCorrupt, never panic, and leave the decoder's cursor where
// it was.
func TestDecoderTruncation(t *testing.T) {
	insts := record(t, callLoop(3), 0)
	enc := encodeAll(t, Header{Workload: "call", Seed: 1, MaxInsts: 0, Complete: true}, progOf(t, callLoop(3)), insts)
	_, p, body, err := parseHeaderBody(enc)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := parse(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: parse: want ErrCorrupt, got %v", cut, err)
		}
	}
	for cut := 0; cut < len(body); cut++ {
		cur := cursor{data: body[:cut], prog: p}
		if err := cur.decode(make([]vm.DynInst, len(insts))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("body cut=%d: decode: want ErrCorrupt, got %v", cut, err)
		}
		if cur.off != 0 {
			t.Fatalf("body cut=%d: a failed decode moved the cursor to byte %d", cut, cur.off)
		}
	}
}

// parseHeaderBody splits an encoded file into its header, its program
// and its record bytes.
func parseHeaderBody(enc []byte) (Header, *program, []byte, error) {
	hdr, p, off, err := parseHeader(enc)
	if err != nil {
		return hdr, nil, nil, err
	}
	return hdr, p, enc[off:], nil
}

// TestEncoderRefusesMismatch: a record the program's table would not
// rebuild exactly is an error, never a silent loss, and the refused
// record leaves the recording as it was.
func TestEncoderRefusesMismatch(t *testing.T) {
	insts := record(t, callLoop(2), 0)
	p := progOf(t, callLoop(2))
	alu, load, branch, ret := -1, -1, -1, -1
	for i, d := range insts {
		switch {
		case d.Op == isa.ADDI && alu < 0:
			alu = i
		case d.Op == isa.LD && load < 0:
			load = i
		case d.Op.IsBranch() && branch < 0:
			branch = i
		case d.Op == isa.JALR && ret < 0:
			ret = i
		}
	}
	if alu < 0 || load < 0 || branch < 0 || ret < 0 {
		t.Fatalf("stream lacks a record kind: alu %d load %d branch %d jalr %d", alu, load, branch, ret)
	}
	bad := map[string]func(d *vm.DynInst){
		"pc below the text":   func(d *vm.DynInst) { d.PC = p.base - isa.InstBytes },
		"pc past the text":    func(d *vm.DynInst) { d.PC = p.base + uint64(len(p.table))*isa.InstBytes },
		"unaligned pc":        func(d *vm.DynInst) { d.PC++ },
		"opcode":              func(d *vm.DynInst) { d.Op = isa.SUB },
		"destination":         func(d *vm.DynInst) { d.Rd++ },
		"source":              func(d *vm.DynInst) { d.Rs2 = isa.R(7) },
		"taken ALU op":        func(d *vm.DynInst) { d.Taken = true },
		"ALU next pc":         func(d *vm.DynInst) { d.NextPC += isa.InstBytes },
		"ALU address":         func(d *vm.DynInst) { d.EffAddr = 0x40 },
		"memory size":         func(d *vm.DynInst) { d.MemSize = 4 },
		"branch target":       func(d *vm.DynInst) { d.Taken = !d.Taken },
		"untaken jump":        func(d *vm.DynInst) { d.Taken = false },
		"load without a size": func(d *vm.DynInst) { d.MemSize = 0 },
	}
	at := map[string]int{"memory size": load, "load without a size": load, "branch target": branch, "untaken jump": ret}
	for name, mutate := range bad {
		i, ok := at[name]
		if !ok {
			i = alu
		}
		w := newRecorder(recording{prog: p})
		for j := 0; j < i; j++ {
			if err := w.append(&insts[j]); err != nil {
				t.Fatal(err)
			}
		}
		before := *w
		d := insts[i]
		mutate(&d)
		if err := w.append(&d); err == nil {
			t.Errorf("%s: the encoder accepted %+v", name, d)
		}
		if w.rec.n != before.rec.n || len(w.buf) != len(before.buf) || len(w.marks) != len(before.marks) || w.rec.end != before.rec.end {
			t.Errorf("%s: a refused record changed the recording", name)
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
	// A recording that halted far short of its need keeps only its
	// own bytes.
	if _, _, exact := held(c.entries[k].rec); !exact {
		t.Fatal("halted recording pins capacity past its length")
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

// TestCacheRecordingHoldsItsBytes pins what recording allocates. A
// recording of more than 4M records, and then an extension of it, each
// allocate the bytes the recording holds afterwards beyond what it
// held before, plus at most the recorder's one open chunk and the
// headers a growing chunk list leaves behind; and every chunk holds
// exactly its bytes. Reserving room up front, or growing one buffer by
// append, allocates megabytes past that. The counting loop encodes to
// 1.25 bytes per record. The guest machine is built before measuring.
func TestCacheRecordingHoldsItsBytes(t *testing.T) {
	const first, second = 4<<20 + 1000, 5 << 20
	m := countingLoop(1 << 21)
	build := func() *vm.Machine { return m }
	var c Cache
	k := Key{Workload: "loop", Seed: 1, MaxInsts: first}
	// The open chunk, and the size-class rounding of the last chunk
	// (a page) and of each full one (its unused tail).
	open := uint64(chunkBytes) + uint64(chunkBytes/markEvery)*markBytes + 8<<10
	for _, need := range []uint64{first, second} {
		before := c.Stats().Bytes
		var r *Replay
		var err error
		got := heapBytes(func() { r, err = c.Source(k, need, "", build) })
		if err != nil {
			t.Fatal(err)
		}
		rec := c.entries[k].rec
		if r.Len() != int(need) || rec.n != int(need) {
			t.Fatalf("need %d: recorded %d records", need, r.Len())
		}
		data, _, exact := held(rec)
		if !exact {
			t.Fatalf("need %d: a chunk pins capacity past its length", need)
		}
		grew := c.Stats().Bytes - before
		slack := open + uint64(len(rec.chunks))*maxRecordBytes + uint64(cap(rec.chunks))*chunkHeaderBytes + 4<<10
		if got < grew || got > grew+slack {
			t.Errorf("need %d: allocated %d bytes, want the %d the recording grew by plus at most %d",
				need, got, grew, slack)
		}
		t.Logf("need %d: %d record bytes in %d chunks; allocated %d bytes for %d held", need, data, len(rec.chunks), got, grew)
	}
	if st := c.Stats(); st.RecordedInsts != second || st.Misses != 2 {
		t.Fatalf("want 2 recordings of %d insts in all, got %+v", second, st)
	}
}

// TestDecoderRejectsSeqFlag: bit 2 of a record's flags once flagged a
// sequence-number gap. Records no longer carry a sequence number; in
// format version 2 the bit marks a memory op, so on record 1, an ALU
// op, the decoder treats it as corrupt input.
func TestDecoderRejectsSeqFlag(t *testing.T) {
	insts := record(t, countingLoop(2), 0)
	enc := encodeAll(t, Header{Workload: "loop", Complete: true}, progOf(t, countingLoop(2)), insts)
	_, p, body, err := parseHeaderBody(enc)
	if err != nil {
		t.Fatal(err)
	}
	cur := cursor{data: body, prog: p}
	if err := cur.decode(make([]vm.DynInst, 1)); err != nil {
		t.Fatal(err)
	}
	// Record 1 starts, with its flags byte, where the decoder stopped.
	body[cur.off] |= 1 << 2
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
	// header — in one chunk, plus one mark for the 100 records and the
	// program: its text and table.
	_, p, body, err := parseHeaderBody(file)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(body)) + chunkHeaderBytes + markBytes + uint64(len(p.text)) + uint64(len(p.table))*staticBytes
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

// fixtureKey is the key of the committed .psbtrace fixtures: health,
// seed 1, 2,000 instructions.
var fixtureKey = Key{Workload: "health", Seed: 1, MaxInsts: 2000}

// readFixture returns a committed fixture and the health workload that
// recorded it.
func readFixture(t *testing.T, path string) ([]byte, workload.Workload) {
	t.Helper()
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	if name := fixtureKey.filename(); filepath.Base(path) != name {
		t.Fatalf("key names its file %s, want %s", name, filepath.Base(path))
	}
	return fixture, w
}

// TestParentFixture pins format version 2 across commits: the committed
// recording (testdata/v2) loads without re-recording, replays exactly a
// fresh recording's records, and a fresh recording for the same key
// writes a byte-identical file.
func TestParentFixture(t *testing.T) {
	name := fixtureKey.filename()
	fixture, w := readFixture(t, filepath.Join("testdata", "v2", name))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	var loaded Cache
	r, err := loaded.Source(fixtureKey, 2000, dir, func() *vm.Machine {
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
	if _, err := fresh.Source(fixtureKey, 2000, out, func() *vm.Machine { return w.Build(1) }); err != nil {
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

// TestV1FixtureRejected: format version 1 is retired. The version-1
// file the slice-backed recorder wrote for the fixture key (testdata)
// is rejected with ErrCorrupt, and a cache that finds it in its trace
// directory re-records the key — the same records a fresh recording
// holds — and replaces the file with the version-2 fixture's bytes.
func TestV1FixtureRejected(t *testing.T) {
	name := fixtureKey.filename()
	v1, w := readFixture(t, filepath.Join("testdata", name))
	if string(v1[:len(Magic)]) != "PSBTRC01" {
		t.Fatalf("testdata/%s is not a version-1 file", name)
	}
	if _, _, err := parse(v1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("parse(v1 fixture): want ErrCorrupt, got %v", err)
	}
	v2, _ := readFixture(t, filepath.Join("testdata", "v2", name))

	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var c Cache
	r, err := c.Source(fixtureKey, 2000, dir, func() *vm.Machine { return w.Build(1) })
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskLoads != 0 || st.Misses != 1 || st.DiskWrites != 1 {
		t.Fatalf("v1 file on disk: want a re-record and a rewrite, got %+v", st)
	}
	if got, want := drain(r), record(t, w.Build(1), 2000); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-recording replays %d records that differ from a fresh recording of %d", len(got), len(want))
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("the v1 file was not replaced by the v2 fixture's bytes (err %v)", err)
	}
}

// TestRecordingBytesPerInst bounds what a recording holds per
// instruction on each workload at 500K: its record bytes, seek marks
// and program, as trace.Stats.Bytes counts them. Version 1 held
// 5.6–7.3 bytes per instruction; with the static fields in the program
// text, every workload stays under 3.
func TestRecordingBytesPerInst(t *testing.T) {
	const n, bound = 500_000, 3.0
	for _, w := range workload.All() {
		var c Cache
		r, err := c.Source(Key{Workload: w.Name, Seed: 1, MaxInsts: n}, n, "",
			func() *vm.Machine { return w.Build(1) })
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != n {
			t.Fatalf("%s: recorded %d instructions, want %d", w.Name, r.Len(), n)
		}
		perInst := float64(c.Stats().Bytes) / n
		t.Logf("%s: %.2f bytes per instruction", w.Name, perInst)
		if perInst > bound {
			t.Errorf("%s: recording holds %.2f bytes per instruction, want at most %.1f", w.Name, perInst, bound)
		}
	}
}

// TestStatsBytesIsCapacity: Stats.Bytes counts the capacity each
// 500K benchmark recording holds, and no chunk keeps capacity past its
// length.
func TestStatsBytesIsCapacity(t *testing.T) {
	const n = 500_000
	for _, w := range workload.All() {
		var c Cache
		k := Key{Workload: w.Name, Seed: 1, MaxInsts: n}
		if _, err := c.Source(k, n, "", func() *vm.Machine { return w.Build(1) }); err != nil {
			t.Fatal(err)
		}
		rec := c.entries[k].rec
		capacity := uint64(cap(rec.chunks))*chunkHeaderBytes + rec.prog.size()
		for _, ch := range rec.chunks {
			capacity += uint64(cap(ch.data)) + uint64(cap(ch.marks))*markBytes
		}
		data, marks, exact := held(rec)
		if got := c.Stats().Bytes; got != capacity || !exact {
			t.Errorf("%s: Stats.Bytes %d, recording holds %d (%d record bytes and %d marks in %d chunks, each at its length: %v)",
				w.Name, got, capacity, data, marks, len(rec.chunks), exact)
		}
	}
}

// TestReplaySeek: From(k) followed by Fill in any batch size yields
// exactly the recorded stream from k, as Next does from 0, at positions
// on a mark, either side of one, inside the first interval, either side
// of a chunk boundary and at the end; over a recording the recorder cut
// into chunks, and over the one chunk a file loads as.
func TestReplaySeek(t *testing.T) {
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	insts := record(t, w.Build(1), 100_000)
	chunked := recordAll(t, progOf(t, w.Build(1)), insts)
	if len(chunked.chunks) < 3 {
		t.Fatalf("want a recording of several chunks, got %d", len(chunked.chunks))
	}
	var file bytes.Buffer
	if err := writeFile(&file, Header{Workload: "health", Count: uint64(len(insts))}, &chunked); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := parse(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(insts))
	at := []uint64{0, 1, markEvery - 1, markEvery, markEvery + 1,
		2*markEvery - 1, 2 * markEvery, 2*markEvery + 1, 3 * markEvery, n - 1, n, n + 5}
	for _, c := range chunked.chunks[1:] {
		b := uint64(c.first)
		at = append(at, b-markEvery-1, b-1, b, b+1, b+markEvery+1)
	}
	// Each seek is checked over the window of records after it, which
	// crosses any chunk boundary within a mark interval of it.
	const window = 3 * markEvery
	for name, rec := range map[string]recording{"chunked": chunked, "loaded": loaded} {
		if !slices.Equal(drain(rec.replay()), insts) {
			t.Fatalf("%s: Next differs from the recorded stream", name)
		}
		for _, k := range at {
			want := insts[min(k, n):min(k+window, n)]
			for _, batch := range []int{1, 7, 256} {
				r := rec.replay().From(k)
				got := make([]vm.DynInst, 0, len(want))
				buf := make([]vm.DynInst, batch)
				for len(got) < window {
					m := r.Fill(buf[:min(batch, window-len(got))])
					if m == 0 {
						break
					}
					got = append(got, buf[:m]...)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d batch=%d: From+Fill gave %d records, want %d from the stream", name, k, batch, len(got), len(want))
				}
			}
		}
	}
}

// TestCacheConcurrentExtension: replays taken before an extension stay
// valid while it runs. Goroutines replay and seek the key's stream,
// across chunk boundaries, while another goroutine extends it twice;
// every record anyone decodes must match a straight-line recording,
// and no extension may change a byte of the chunks the first recording
// holds, which the extended recordings share.
func TestCacheConcurrentExtension(t *testing.T) {
	const first = 30_000
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
	if len(rec0.chunks) < 2 {
		t.Fatalf("want a first recording of several chunks, got %d", len(rec0.chunks))
	}
	var bytes0 [][]byte
	for _, ch := range rec0.chunks {
		bytes0 = append(bytes0, slices.Clone(ch.data))
	}
	needs := []uint64{2 * first, 4 * first}

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
				from := uint64((i*7*markEvery + g*331) % first)
				check(base, from, 1+g*85)
				if r, err := c.Source(k, first, "", build); err != nil {
					t.Error(err)
				} else {
					check(r, from, 256)
				}
			}
		}(g)
	}
	for _, need := range needs {
		r, err := c.Source(k, need, "", build)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != int(need) {
			t.Fatalf("extension to %d recorded %d", need, r.Len())
		}
		e.mu.Lock()
		rec := e.rec
		e.mu.Unlock()
		for i, ch := range rec0.chunks {
			if !bytes.Equal(ch.data, bytes0[i]) || unsafe.SliceData(rec.chunks[i].data) != unsafe.SliceData(ch.data) {
				t.Fatalf("extension to %d changed or copied chunk %d of the first recording", need, i)
			}
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
