package cpu

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sbuf"
	"repro/internal/vm"
	"repro/internal/workload"
)

// recordStream steps a fresh workload machine n instructions and
// returns both the recording and the machine (for architectural-state
// comparison).
func recordStream(tb testing.TB, w workload.Workload, n int) ([]vm.DynInst, *vm.Machine) {
	tb.Helper()
	m := w.Build(1)
	insts := make([]vm.DynInst, 0, n)
	for len(insts) < n {
		d, err := m.Step()
		if err != nil {
			tb.Fatalf("%s halted after %d insts: %v", w.Name, len(insts), err)
		}
		insts = append(insts, d)
	}
	return insts, m
}

// replaySource serves a recording by consuming it, a Source that is
// not a Stream.
type replaySource struct {
	insts []vm.DynInst
}

func (s *replaySource) Fill(dst []vm.DynInst) int {
	n := copy(dst, s.insts)
	s.insts = s.insts[n:]
	return n
}

// TestFunctionalFrontEndEquivalence drives the detailed core and the
// functional executor over the same recording for every workload and
// requires bit-identical branch-predictor and L1I state at the point
// the detailed front end stopped fetching. Both consume the committed
// path in program order, so these structures must agree exactly — any
// drift here would silently bias every sampled measurement.
func TestFunctionalFrontEndEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			insts, _ := recordStream(t, w, 35_000)
			cfg := DefaultConfig()
			memCfg := mem.DefaultConfig()

			hier := mem.New(memCfg)
			c := New(cfg, hier, sbuf.Null{}, &replaySource{insts: insts})
			c.Run(30_000)
			fetched := c.Fetched()
			if fetched <= 0 || fetched > len(insts) {
				t.Fatalf("detailed core fetched %d of %d recorded insts", fetched, len(insts))
			}

			f := NewFunctional(memCfg, cfg.Gshare, insts)
			f.AdvanceTo(uint64(fetched))

			if got, want := f.Snapshot().BP, c.BranchState(); !reflect.DeepEqual(got, want) {
				t.Errorf("gshare state diverged after %d fetched insts", fetched)
			}
			st := f.Snapshot()
			if got, want := st.Mem.L1I, hier.L1I.State(); !reflect.DeepEqual(got, want) {
				t.Errorf("L1I state diverged after %d fetched insts", fetched)
			}
		})
	}
}

// TestFunctionalArchitecturalEquivalence checks that replaying the
// recorded stream is equivalent to architectural execution: a second
// independently-built machine commits the identical dynamic
// instruction sequence and ends with the identical register file, PC,
// and memory contents at every stored location.
func TestFunctionalArchitecturalEquivalence(t *testing.T) {
	const n = 20_000
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			insts, ma := recordStream(t, w, n)
			mb := w.Build(1)
			stores := make(map[uint64]struct{})
			for i := 0; i < n; i++ {
				d, err := mb.Step()
				if err != nil {
					t.Fatalf("replay halted at %d: %v", i, err)
				}
				if d != insts[i] {
					t.Fatalf("inst %d diverged: %+v vs %+v", i, d, insts[i])
				}
				if d.IsStore() {
					stores[d.EffAddr] = struct{}{}
				}
			}
			if ma.IntReg != mb.IntReg {
				t.Errorf("integer register files diverged")
			}
			if ma.FPReg != mb.FPReg {
				t.Errorf("FP register files diverged")
			}
			if ma.PC != mb.PC {
				t.Errorf("PC diverged: %#x vs %#x", ma.PC, mb.PC)
			}
			for addr := range stores {
				if ga, gb := ma.Mem.Read64(addr), mb.Mem.Read64(addr); ga != gb {
					t.Fatalf("memory diverged at %#x: %#x vs %#x", addr, ga, gb)
				}
			}
		})
	}
}

// TestFunctionalSnapshotRoundTrip requires that restoring a checkpoint
// and re-advancing reproduces the exact state the original pass had —
// the property the incremental checkpoint store depends on.
func TestFunctionalSnapshotRoundTrip(t *testing.T) {
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	insts, _ := recordStream(t, w, 20_000)
	memCfg := mem.DefaultConfig()
	gcfg := DefaultGshareConfig()

	f := NewFunctional(memCfg, gcfg, insts)
	f.AdvanceTo(8_000)
	mid := f.Snapshot()
	f.AdvanceTo(16_000)
	want := f.Snapshot()

	g := NewFunctional(memCfg, gcfg, insts)
	if err := g.Restore(mid); err != nil {
		t.Fatal(err)
	}
	if g.Pos() != 8_000 {
		t.Fatalf("restored position %d, want 8000", g.Pos())
	}
	g.AdvanceTo(16_000)
	if got := g.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("state after restore+advance differs from straight-through pass")
	}
	if g.Executed() != 8_000 {
		t.Errorf("restored executor ran %d insts, want 8000", g.Executed())
	}
	// Rewinding the executor that ran ahead must drop the records it
	// had decoded past 16,000 and seek its stream back to 8,000.
	f.AdvanceTo(16_100)
	if err := f.Restore(mid); err != nil {
		t.Fatal(err)
	}
	f.AdvanceTo(16_000)
	if got := f.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("state after rewind+advance differs from straight-through pass")
	}
}

// TestFunctionalSnapshotInto pins the reusable snapshot: SnapshotInto
// over a state holding an earlier snapshot leaves exactly what
// Snapshot returns, allocates nothing once the buffers are sized, and
// Trained counts every train event, including those the full ring has
// dropped.
func TestFunctionalSnapshotInto(t *testing.T) {
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	insts, _ := recordStream(t, w, 100_000)
	f := NewFunctional(mem.DefaultConfig(), DefaultGshareConfig(), insts)
	var st FunctionalState
	f.AdvanceTo(2_000)
	f.SnapshotInto(&st)
	trained := f.Trained()
	f.AdvanceTo(100_000)
	if allocs := testing.AllocsPerRun(3, func() { f.SnapshotInto(&st) }); allocs != 0 {
		t.Errorf("SnapshotInto allocated %v times into sized buffers", allocs)
	}
	if want := f.Snapshot(); !reflect.DeepEqual(&st, want) {
		t.Error("SnapshotInto over an earlier snapshot differs from Snapshot")
	}
	if len(st.Train) != TrainRingCap || f.Trained()-trained <= TrainRingCap {
		t.Errorf("ring holds %d events after %d more trains, want a wrapped ring of %d",
			len(st.Train), f.Trained()-trained, TrainRingCap)
	}
}

// TestFunctionalStateRejectsWrongGeometry covers the snapshot shape
// guards.
func TestFunctionalStateRejectsWrongGeometry(t *testing.T) {
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	insts, _ := recordStream(t, w, 1_000)
	f := NewFunctional(mem.DefaultConfig(), DefaultGshareConfig(), insts)
	f.AdvanceTo(500)
	st := f.Snapshot()

	small := mem.DefaultConfig()
	small.L1D.SizeBytes /= 2
	if err := NewFunctional(small, DefaultGshareConfig(), insts).Restore(st); err == nil {
		t.Error("mismatched cache geometry accepted")
	}
	gsmall := DefaultGshareConfig()
	gsmall.TableBits--
	if err := NewFunctional(mem.DefaultConfig(), gsmall, insts).Restore(st); err == nil {
		t.Error("mismatched gshare geometry accepted")
	}
}

// BenchmarkFunctionalExec measures raw functional fast-forward
// throughput over a warm recording (the speed that makes sampling
// pay).
func BenchmarkFunctionalExec(b *testing.B) {
	w, err := workload.ByName("health")
	if err != nil {
		b.Fatal(err)
	}
	const n = 200_000
	insts, _ := recordStream(b, w, n)
	memCfg := mem.DefaultConfig()
	gcfg := DefaultGshareConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewFunctional(memCfg, gcfg, insts)
		f.AdvanceTo(n)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// TestResetMatchesNew pins the single initialisation path: a core
// stopped mid-run and Reset over a new prefetcher and source, then
// seeded with a branch state, must equal a core built by New over the
// same parts and seeded the same way — whether the new source is a
// shared replay or a streaming one.
func TestResetMatchesNew(t *testing.T) {
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	insts, _ := recordStream(t, w, 30_000)
	cfg := DefaultConfig()
	memCfg := mem.DefaultConfig()
	f := NewFunctional(memCfg, cfg.Gshare, insts)
	f.AdvanceTo(20_000)
	bp := f.Snapshot().BP

	hier := mem.New(memCfg)
	c := New(cfg, hier, sbuf.Null{}, &replaySource{insts: insts})
	for _, src := range []Source{&SliceSource{Insts: insts[5_000:]}, &replaySource{insts: insts[9_000:]}} {
		// Stop partway, at a point with instructions in flight.
		for stop := c.stats.Committed + 4_000; c.robCount == 0 || c.fqLen == 0; stop += 10 {
			done, err := c.Advance(context.Background(), 0, stop)
			if err != nil || done {
				t.Fatalf("core finished (%v) or failed (%v) before stopping mid-run", done, err)
			}
		}
		pf := &rangeSpyPF{}
		c.Reset(pf, src)
		if err := c.SetBranchState(bp); err != nil {
			t.Fatal(err)
		}
		want := New(cfg, hier, pf, src)
		if err := want.SetBranchState(bp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("Reset core over %T differs from New", src)
		}
	}
}
