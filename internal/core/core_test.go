package core

import (
	"testing"

	"repro/internal/predict"
	"repro/internal/sbuf"
)

type nopFetch struct{}

func (nopFetch) Prefetch(cycle, addr uint64) (uint64, bool) { return cycle + 1, true }
func (nopFetch) BusFreeAt(cycle uint64) bool                { return true }

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{
		None:             "Base",
		Sequential:       "Sequential",
		PCStride:         "PC-stride",
		PSB2MissRR:       "2Miss-RR",
		PSB2MissPriority: "2Miss-Priority",
		PSBConfRR:        "ConfAlloc-RR",
		PSBConfPriority:  "ConfAlloc-Priority",
	}
	for v, name := range want {
		if v.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), name)
		}
	}
	if Variant(99).String() != "variant(99)" {
		t.Errorf("unknown variant string = %q", Variant(99).String())
	}
}

func TestVariantsListsComplete(t *testing.T) {
	if len(Variants()) != int(numVariants) {
		t.Errorf("Variants() has %d entries, want %d", len(Variants()), numVariants)
	}
	if len(PaperVariants()) != 5 {
		t.Errorf("PaperVariants() has %d entries, want 5", len(PaperVariants()))
	}
	for _, v := range PaperVariants() {
		if v == None || v == Sequential {
			t.Errorf("PaperVariants contains %v", v)
		}
	}
}

func TestNewBuildsEveryVariant(t *testing.T) {
	for _, v := range Variants() {
		p := New(v, nopFetch{})
		if p == nil {
			t.Fatalf("New(%v) returned nil", v)
		}
		// Exercise the interface without crashing.
		p.Train(0x40, 0x1000)
		p.AllocationRequest(0, 0x40, 0x1000)
		p.Tick(1)
		p.Lookup(2, 0x1000)
		_ = p.Stats()
	}
}

func TestNoneIsNull(t *testing.T) {
	p := New(None, nopFetch{})
	if _, ok := p.(sbuf.Null); !ok {
		t.Errorf("New(None) = %T, want sbuf.Null", p)
	}
}

func TestPoliciesMapping(t *testing.T) {
	cases := []struct {
		v     Variant
		pred  Predictor
		alloc sbuf.AllocPolicy
		sched sbuf.SchedPolicy
	}{
		{Sequential, PredSequential, sbuf.AllocAlways, sbuf.SchedRoundRobin},
		{PCStride, PredPCStride, sbuf.AllocTwoMiss, sbuf.SchedRoundRobin},
		{MinDeltaStride, PredMinDelta, sbuf.AllocTwoMiss, sbuf.SchedRoundRobin},
		{PSB2MissRR, PredSFM, sbuf.AllocTwoMiss, sbuf.SchedRoundRobin},
		{PSB2MissPriority, PredSFM, sbuf.AllocTwoMiss, sbuf.SchedPriority},
		{PSBConfRR, PredSFM, sbuf.AllocConfidence, sbuf.SchedRoundRobin},
		{PSBConfPriority, PredSFM, sbuf.AllocConfidence, sbuf.SchedPriority},
	}
	for _, c := range cases {
		s := Resolve(c.v, DefaultOptions())
		if s.Predictor != c.pred || s.Buffers.Alloc != c.alloc || s.Buffers.Sched != c.sched {
			t.Errorf("%v resolves to (%v,%v,%v), want (%v,%v,%v)",
				c.v, s.Predictor, s.Buffers.Alloc, s.Buffers.Sched, c.pred, c.alloc, c.sched)
		}
	}
}

// TestBuildRunsTheResolvedConfig: Build overwrites nothing. Every
// engine variant, with every allocation and scheduling policy edited
// into its resolved scheme, builds an engine whose configuration is
// exactly the scheme's.
func TestBuildRunsTheResolvedConfig(t *testing.T) {
	engines := 0
	for _, v := range Variants() {
		for _, alloc := range []sbuf.AllocPolicy{sbuf.AllocAlways, sbuf.AllocTwoMiss, sbuf.AllocConfidence} {
			for _, sched := range []sbuf.SchedPolicy{sbuf.SchedRoundRobin, sbuf.SchedPriority} {
				s := Resolve(v, DefaultOptions())
				s.Buffers.Alloc, s.Buffers.Sched = alloc, sched
				e, ok := s.Build(nopFetch{}).(*sbuf.Engine)
				if !ok {
					continue
				}
				engines++
				if got := e.Config(); got != s.Buffers {
					t.Errorf("%v with (%v,%v): engine runs %+v, want %+v", v, alloc, sched, got, s.Buffers)
				}
			}
		}
	}
	// Sequential, PC-stride, MinDelta and the four PSB variants.
	if want := 7 * 6; engines != want {
		t.Errorf("built %d engines, want %d", engines, want)
	}
}

func TestNewCustomAcceptsAnyPredictor(t *testing.T) {
	e := NewCustom(predict.NewSequential(32), sbuf.DefaultConfig(), nopFetch{})
	e.AllocationRequest(0, 0x40, 0x1000)
	e.Tick(1)
	if e.Stats().PrefetchesIssued == 0 {
		t.Error("custom engine issued no prefetches")
	}
}

func TestNewUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an unknown variant")
		}
	}()
	New(Variant(42), nopFetch{})
}
