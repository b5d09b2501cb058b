package sample

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func healthStream(tb testing.TB, n int) []vm.DynInst {
	tb.Helper()
	w, err := workload.ByName("health")
	if err != nil {
		tb.Fatal(err)
	}
	m := w.Build(1)
	insts := make([]vm.DynInst, 0, n)
	for len(insts) < n {
		d, err := m.Step()
		if err != nil {
			tb.Fatalf("health halted after %d insts: %v", len(insts), err)
		}
		insts = append(insts, d)
	}
	return insts
}

func testKey() Key {
	return Key{Workload: "health", Seed: 1,
		Geometry: GeometryDigest(mem.DefaultConfig(), cpu.DefaultGshareConfig())}
}

func bootFor(insts []vm.DynInst) func() *cpu.Functional {
	return func() *cpu.Functional {
		return cpu.NewFunctional(mem.DefaultConfig(), cpu.DefaultGshareConfig(), insts)
	}
}

// TestStoreIncrementalReuse pins the store's core economics: repeated
// requests hit, forward requests advance incrementally (never from
// zero), and rewinds restore the nearest earlier checkpoint.
func TestStoreIncrementalReuse(t *testing.T) {
	insts := healthStream(t, 4_000)
	var s Store
	var cur Cursor
	k := testKey()
	boot := bootFor(insts)

	st0, info, err := s.At(&cur, k, 0, boot)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.FunctionalInsts != 0 {
		t.Errorf("position 0: info = %+v, want cold zero-work miss", info)
	}
	if st0.Pos != 0 {
		t.Errorf("position 0 checkpoint at pos %d", st0.Pos)
	}

	if _, info, err = s.At(&cur, k, 1_000, boot); err != nil || info.FunctionalInsts != 1_000 {
		t.Fatalf("advance to 1000: info=%+v err=%v, want 1000 functional insts", info, err)
	}
	if _, info, err = s.At(&cur, k, 1_000, boot); err != nil || !info.Hit {
		t.Fatalf("repeat at 1000: info=%+v err=%v, want hit", info, err)
	}
	// Incremental: 1000 -> 3000 costs 2000, not 3000.
	if _, info, err = s.At(&cur, k, 3_000, boot); err != nil || info.FunctionalInsts != 2_000 {
		t.Fatalf("advance to 3000: info=%+v err=%v, want 2000 functional insts", info, err)
	}
	// Rewind: restored from the checkpoint at 1000, so 500 insts.
	if _, info, err = s.At(&cur, k, 1_500, boot); err != nil || info.FunctionalInsts != 500 {
		t.Fatalf("rewind to 1500: info=%+v err=%v, want 500 functional insts", info, err)
	}

	stats := s.Stats()
	if stats.Hits != 1 || stats.Misses != 4 || stats.FunctionalInsts != 3_500 {
		t.Errorf("stats = %+v, want 1 hit, 4 misses, 3500 functional insts", stats)
	}

	// Beyond the recording: an explicit error, not a silent short state.
	if _, _, err := s.At(&cur, k, 10_000, boot); err == nil {
		t.Error("position beyond the recording accepted")
	}
}

// heldBytes sums what s holds, entry by entry: the checkpoints, each
// generator's state and live executor, the released cursors and the
// miss profiles.
func heldBytes(s *Store) uint64 {
	var n uint64
	for _, e := range s.entries {
		n += e.genBytes()
		for _, ck := range e.ckpts {
			n += ck.size
		}
		for _, c := range e.idle {
			n += stateBytes(&c.st)
		}
		for _, p := range e.profiles {
			n += 4 * uint64(cap(p))
		}
	}
	return n
}

// TestStoreBytes pins the store's memory accounting and what the
// compact encoding saves. At 200K on health the first checkpoint, a
// root, adds under an eighth of a whole state beyond the generator's
// own state and executor, and each later checkpoint adds under a
// tenth. Stats.Bytes counts the live executor at about what booting
// one allocates, and the miss profile, and a released cursor counts
// until a later run takes it back.
func TestStoreBytes(t *testing.T) {
	insts := healthStream(t, 200_000)
	var s Store
	k := testKey()
	boot := bootFor(insts)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := boot()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)

	cur := s.Cursor(k)
	st, _, err := s.At(cur, k, 20_000, boot)
	if err != nil {
		t.Fatal(err)
	}
	whole := stateBytes(st)
	e := s.entry(k)
	gen := e.genBytes()
	if alloc, eb := after.TotalAlloc-before.TotalAlloc, gen-stateBytes(&e.last.st); eb > alloc || eb < alloc*9/10 {
		t.Errorf("the live executor counts %d bytes, want within 10%% below the %d bytes booting one allocates", eb, alloc)
	}
	if got := s.Stats().Bytes; got < gen || got-gen >= whole/8 {
		t.Errorf("first checkpoint: store holds %d bytes, %d beyond the generator's, want under %d (an eighth of a whole state)",
			got, got-gen, whole/8)
	}
	for pos := uint64(40_000); pos < 200_000; pos += 20_000 {
		held := s.Stats().Bytes
		if _, _, err := s.At(cur, k, pos, boot); err != nil {
			t.Fatal(err)
		}
		if added := s.Stats().Bytes - held; added == 0 || added >= whole/10 {
			t.Errorf("checkpoint at %d added %d bytes, want 0 < added < %d (a tenth of a whole state)",
				pos, added, whole/10)
		}
	}

	held := s.Stats().Bytes
	p, _, err := s.Profile(k, 200_000, boot)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().Bytes-held, 4*uint64(cap(p)); got != want {
		t.Errorf("a miss profile added %d bytes, want its %d", got, want)
	}

	held = s.Stats().Bytes
	s.Release(cur)
	if got, want := s.Stats().Bytes-held, stateBytes(&cur.st); got != want {
		t.Errorf("releasing a cursor added %d bytes, want its %d", got, want)
	}
	if got := heldBytes(&s); s.Stats().Bytes != got {
		t.Errorf("Stats.Bytes = %d, want the %d bytes the store holds", s.Stats().Bytes, got)
	}
	if again := s.Cursor(k); again != cur || s.Stats().Bytes != held {
		t.Errorf("a later run got a new cursor or left %d bytes counted, want the released one and %d",
			s.Stats().Bytes, held)
	}
}

// TestStoreConcurrentCursors runs four readers against one store, each
// taking a cursor, walking the checkpoints in its own order and
// releasing it, twice over. Every state must equal a straight
// snapshot, and Stats.Bytes must end equal to what the store holds.
func TestStoreConcurrentCursors(t *testing.T) {
	insts := healthStream(t, 40_000)
	k := testKey()
	boot := bootFor(insts)
	var pos []uint64
	want := make(map[uint64]*cpu.FunctionalState)
	f := boot()
	for p := uint64(0); p < 40_000; p += 2_000 {
		f.AdvanceTo(p)
		pos = append(pos, p)
		want[p] = f.Snapshot()
	}

	var s Store
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				c := s.Cursor(k)
				for i := range pos {
					p := pos[(i*(2*g+1)+g)%len(pos)] // a different stride per reader
					st, _, err := s.At(c, k, p, boot)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(st, want[p]) {
						t.Errorf("reader %d: checkpoint at %d differs from a straight snapshot", g, p)
						return
					}
				}
				s.Release(c)
			}
		}(g)
	}
	wg.Wait()

	if got, held := s.Stats().Bytes, heldBytes(&s); got != held {
		t.Errorf("Stats.Bytes = %d, want the %d bytes the store holds", got, held)
	}
}

// TestStoreDepthBound walks one chain past the depth bound: every
// maxDepth+1st checkpoint is a root, so no checkpoint sits more than
// maxDepth deltas past a root.
func TestStoreDepthBound(t *testing.T) {
	insts := healthStream(t, 5_000)
	var s Store
	var cur Cursor
	k := testKey()
	const n = 2*(maxDepth+1) + 1
	for i := uint64(0); i < n; i++ {
		if _, _, err := s.At(&cur, k, 16*i, bootFor(insts)); err != nil {
			t.Fatal(err)
		}
	}
	for i, ck := range s.entry(k).ckpts {
		if want := i % (maxDepth + 1); ck.depth != want || (ck.base == nil) != (want == 0) {
			t.Errorf("checkpoint %d: depth %d (root %v), want %d", i, ck.depth, ck.base == nil, want)
		}
	}
}

func TestEstimateStatistics(t *testing.T) {
	// Four identical CPI samples: zero variance, tight CI
	// (statistics-only reduction, no extrapolation).
	e := NewEstimate(1000, 100, 50, []float64{2, 2, 2, 2}, 400, 800, 0, 0, 0)
	if e.Intervals != 4 || e.CPIMean != 2 || e.CPIStdDev != 0 || e.CoV != 0 || e.CIRelPct != 0 {
		t.Errorf("degenerate-variance estimate wrong: %+v", e)
	}
	if e.IPC != 0.5 || e.IPCLow != 0.5 || e.IPCHigh != 0.5 {
		t.Errorf("IPC bounds wrong: %+v", e)
	}

	// Known two-sample case: mean 3, sd sqrt(2), half-width
	// 1.96*sqrt(2)/sqrt(2) = 1.96.
	e = NewEstimate(1000, 100, 50, []float64{2, 4}, 200, 600, 0, 0, 0)
	if math.Abs(e.CPIMean-3) > 1e-12 || math.Abs(e.CPIStdDev-math.Sqrt2) > 1e-12 {
		t.Errorf("mean/sd wrong: %+v", e)
	}
	wantHalf := 1.96 * math.Sqrt2 / math.Sqrt(2)
	if math.Abs(e.CIRelPct-100*wantHalf/3) > 1e-9 {
		t.Errorf("CI rel%% = %v, want %v", e.CIRelPct, 100*wantHalf/3)
	}
	if math.Abs(e.IPCLow-1/(3+wantHalf)) > 1e-12 || math.Abs(e.IPCHigh-1/(3-wantHalf)) > 1e-12 {
		t.Errorf("IPC bounds wrong: %+v", e)
	}

	// No intervals: everything zero, no NaNs.
	e = NewEstimate(1000, 100, 50, nil, 0, 0, 0, 0, 0)
	if e.IPC != 0 || e.CPIMean != 0 || e.CIRelPct != 0 {
		t.Errorf("empty estimate not zero: %+v", e)
	}
}

func TestEstimateWithCertaintyStratum(t *testing.T) {
	// 100K-inst budget: a 20K certainty stratum measured at 40K cycles
	// exactly, the rest sampled at CPI 1 with zero variance. Total
	// cycles = 40K + 1·80K = 120K, IPC = 100K/120K.
	e := NewEstimate(1000, 100, 50, []float64{1, 1, 1, 1}, 400, 400, 20_000, 40_000, 100_000)
	want := 100_000.0 / 120_000.0
	if math.Abs(e.IPC-want) > 1e-12 {
		t.Errorf("IPC = %v, want %v", e.IPC, want)
	}
	if e.IPCLow != e.IPC || e.IPCHigh != e.IPC {
		t.Errorf("zero-variance bounds should collapse: %+v", e)
	}
	if e.CertaintyInsts != 20_000 || e.CertaintyCycles != 40_000 || e.TotalInsts != 100_000 {
		t.Errorf("certainty accounting wrong: %+v", e)
	}

	// With sample variance the bounds bracket the point estimate, and
	// only the sampled remainder widens them.
	e = NewEstimate(1000, 100, 50, []float64{0.8, 1.2}, 400, 400, 20_000, 40_000, 100_000)
	if !(e.IPCLow < e.IPC && e.IPC < e.IPCHigh) {
		t.Errorf("bounds do not bracket the estimate: %+v", e)
	}

	// Nothing sampled but a certainty stratum present: report the
	// certainty ratio rather than extrapolating from nothing.
	e = NewEstimate(1000, 100, 50, nil, 0, 0, 20_000, 40_000, 100_000)
	if e.IPC != 0.5 {
		t.Errorf("certainty-only IPC = %v, want 0.5", e.IPC)
	}
}

func TestGeometryDigestDistinguishes(t *testing.T) {
	base := GeometryDigest(mem.DefaultConfig(), cpu.DefaultGshareConfig())
	mc := mem.DefaultConfig()
	mc.L1D.SizeBytes *= 2
	if GeometryDigest(mc, cpu.DefaultGshareConfig()) == base {
		t.Error("L1D size change did not change the digest")
	}
	gc := cpu.DefaultGshareConfig()
	gc.HistoryBits++
	if GeometryDigest(mem.DefaultConfig(), gc) == base {
		t.Error("gshare change did not change the digest")
	}
}

// BenchmarkCursorWalk walks one cursor through the ascending
// checkpoints of a 2M-instruction health run at the default 20K
// sampling period, as each later scheme's sampled run does once the
// store holds them: a root, then one delta per seek. It reports the
// time per seek and the bytes stored per checkpoint.
func BenchmarkCursorWalk(b *testing.B) {
	const n, period = 2_000_000, 20_000
	w, err := workload.ByName("health")
	if err != nil {
		b.Fatal(err)
	}
	rep, err := new(trace.Cache).Source(trace.Key{Workload: w.Name, Seed: 1, MaxInsts: n}, n, "",
		func() *vm.Machine { return w.Build(1) })
	if err != nil {
		b.Fatal(err)
	}
	boot := func() *cpu.Functional {
		return cpu.NewFunctionalStream(mem.DefaultConfig(), cpu.DefaultGshareConfig(), rep.From(0))
	}
	var s Store
	k := testKey()
	var pos []uint64
	for p := uint64(0); p < n; p += period {
		if _, _, err := s.At(new(Cursor), k, p, boot); err != nil {
			b.Fatal(err)
		}
		pos = append(pos, p)
	}
	var stored uint64
	for _, ck := range s.entry(k).ckpts {
		stored += ck.size
	}

	c := s.Cursor(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pos {
			if _, _, err := s.At(c, k, p, boot); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pos)), "ns/seek")
	b.ReportMetric(float64(stored)/float64(len(pos)), "B/ckpt")
}
