package mem

import (
	"reflect"
	"testing"
)

// TestHierarchyRewarmMatchesFresh pins Rewarm's reuse contract: a
// hierarchy driven through demand misses, an MSHR merge, a prefetch
// fill, a TLB walk and bus traffic on both links, then rewarmed, is
// indistinguishable from New followed by SetWarmState of the same
// snapshot — storage reuse must never leak one interval's transient
// state or statistics into the next.
func TestHierarchyRewarmMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()

	// The warm state comes from another hierarchy's traffic, so it
	// shares nothing with the one being rewarmed.
	donor := New(cfg)
	for i := uint64(0); i < 2048; i++ {
		donor.AccessD(i*10, i*96)
		donor.AccessI(i*10, 1<<22+i*32)
		donor.Prefetch(i*10+5, 1<<26+i*4096)
	}
	ws := donor.WarmState()

	h := New(cfg)
	if r := h.AccessD(0, 0x1000); r.Hit {
		t.Fatal("cold demand access hit")
	}
	if r := h.AccessD(1, 0x1008); !r.InFlight {
		t.Fatal("second access to the missing block did not merge into its MSHR")
	}
	h.AccessD(2, 0x8000)
	h.AccessI(3, 0x400000)
	ready, _ := h.Prefetch(4, 0x900000)
	h.PromoteToMSHR(5, 0x900000, ready)
	h.FillL1D(0xa00000)
	if h.DMSHR.Merges == 0 || h.IMSHR.Allocs == 0 || h.DTLB.Misses == 0 ||
		h.L1L2.BusyCycles() == 0 || h.MemBus.BusyCycles() == 0 ||
		h.DemandL2Misses == 0 || h.PrefL2Misses == 0 || h.L1D.Stats().Fills == 0 {
		t.Fatal("setup traffic did not reach every structure")
	}

	if err := h.Rewarm(ws); err != nil {
		t.Fatal(err)
	}
	want := New(cfg)
	if err := want.SetWarmState(ws); err != nil {
		t.Fatal(err)
	}
	for _, part := range []struct {
		name      string
		got, want any
	}{
		{"L1D", h.L1D, want.L1D}, {"L1I", h.L1I, want.L1I}, {"L2", h.L2, want.L2},
		{"L1L2", h.L1L2, want.L1L2}, {"MemBus", h.MemBus, want.MemBus},
		{"DMSHR", h.DMSHR, want.DMSHR}, {"IMSHR", h.IMSHR, want.IMSHR},
		{"DTLB", h.DTLB, want.DTLB}, {"l2pipe", h.l2pipe, want.l2pipe},
	} {
		if !reflect.DeepEqual(part.got, part.want) {
			t.Errorf("rewarmed %s differs from a fresh one:\n got  %+v\n want %+v", part.name, part.got, part.want)
		}
	}
	if !reflect.DeepEqual(h, want) {
		t.Error("rewarmed hierarchy differs from New+SetWarmState")
	}

	other := cfg
	other.L2.SizeBytes /= 2
	if err := New(other).Rewarm(ws); err == nil {
		t.Error("Rewarm accepted a snapshot from another geometry")
	}
}
