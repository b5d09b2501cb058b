package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// testConfig keeps integration runs fast while staying long enough for
// the prefetchers to reach steady state.
func testConfig() Config {
	cfg := Default()
	cfg.MaxInsts = 120_000
	return cfg
}

func get(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSchemeFollowsMemory: a scheme's stream-buffer blocks follow the
// L1D line and its buffer pages the DTLB's, whatever Opts says, so the
// translation a buffer caches covers the page the DTLB maps.
func TestSchemeFollowsMemory(t *testing.T) {
	cfg := Default()
	cfg.Mem.L1D.BlockBytes = 64
	cfg.Mem.PageBytes = 8192
	b := cfg.Scheme(core.PSBConfPriority).Buffers
	if b.BlockBytes != 64 || b.PageBytes != 8192 {
		t.Errorf("buffers of %d-byte blocks on %d-byte pages, want 64 and 8192", b.BlockBytes, b.PageBytes)
	}
}

// TestHeadlinePSBBeatsBaseOnPointerApps is the paper's central result:
// predictor-directed stream buffers speed up pointer-intensive
// programs substantially over no prefetching.
func TestHeadlinePSBBeatsBaseOnPointerApps(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 250_000 // past predictor warm-up
	for _, name := range []string{"health", "burg", "deltablue"} {
		w := get(t, name)
		base := Run(w, core.None, cfg)
		psb := Run(w, core.PSBConfPriority, cfg)
		if sp := psb.SpeedupOver(base); sp < 5 {
			t.Errorf("%s: PSB speedup over base = %.1f%%, want >= 5%%", name, sp)
		}
	}
}

// TestHeadlinePSBBeatsPCStride: the PSB advantage over the best prior
// approach on pointer code.
func TestHeadlinePSBBeatsPCStride(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 250_000 // past predictor warm-up
	for _, name := range []string{"health", "burg", "deltablue"} {
		w := get(t, name)
		pcs := Run(w, core.PCStride, cfg)
		psb := Run(w, core.PSBConfPriority, cfg)
		if sp := psb.SpeedupOver(pcs); sp < 5 {
			t.Errorf("%s: PSB speedup over PC-stride = %.1f%%, want >= 5%%", name, sp)
		}
	}
}

// TestStrideCodePSBMatchesPCStride: on the FORTRAN control, PSB must
// match (not beat) stride stream buffers — the SFM stride filter
// handles what the Markov table need not.
func TestStrideCodePSBMatchesPCStride(t *testing.T) {
	cfg := testConfig()
	w := get(t, "turb3d")
	pcs := Run(w, core.PCStride, cfg)
	psb := Run(w, core.PSBConfPriority, cfg)
	if sp := psb.SpeedupOver(pcs); sp < -3 || sp > 5 {
		t.Errorf("turb3d: PSB vs PC-stride = %.1f%%, want roughly equal", sp)
	}
	base := Run(w, core.None, cfg)
	if pcs.SpeedupOver(base) < 10 {
		t.Errorf("turb3d: PC-stride speedup = %.1f%%, want substantial", pcs.SpeedupOver(base))
	}
}

// TestSisStreamThrashing reproduces the paper's sis observations:
// without confidence the accuracy collapses and the L1-L2 bus fills
// with useless prefetches; confidence allocation restores accuracy and
// bandwidth.
func TestSisStreamThrashing(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 300_000 // confidence allocation needs warm counters
	w := get(t, "sis")
	base := Run(w, core.None, cfg)
	twoMiss := Run(w, core.PSB2MissRR, cfg)
	conf := Run(w, core.PSBConfPriority, cfg)

	if twoMiss.SB.Accuracy() > 0.5 {
		t.Errorf("2Miss accuracy = %.2f, expected thrash-degraded (< 0.5)", twoMiss.SB.Accuracy())
	}
	if conf.SB.Accuracy() < 0.7 {
		t.Errorf("ConfAlloc accuracy = %.2f, want >= 0.7", conf.SB.Accuracy())
	}
	if twoMiss.L1L2Util < base.L1L2Util*1.3 {
		t.Errorf("2Miss bus util %.2f not inflated over base %.2f",
			twoMiss.L1L2Util, base.L1L2Util)
	}
	if conf.IPC() <= twoMiss.IPC()*0.98 {
		t.Errorf("ConfAlloc IPC %.3f should be at least 2Miss IPC %.3f",
			conf.IPC(), twoMiss.IPC())
	}
	// Confidence allocation must actually deny allocations.
	if conf.SB.AllocationsDenied == 0 {
		t.Error("confidence allocation denied nothing on sis")
	}
	if conf.SB.Allocations >= twoMiss.SB.Allocations {
		t.Errorf("ConfAlloc allocations %d not below 2Miss %d (thrash not reduced)",
			conf.SB.Allocations, twoMiss.SB.Allocations)
	}
}

// TestPrefetchingReducesMissRate: Figure 7's shape — with PSB, the
// in-flight-counting miss rate drops below base.
func TestPrefetchingReducesMissRate(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{"health", "deltablue", "sis"} {
		w := get(t, name)
		base := Run(w, core.None, cfg)
		psb := Run(w, core.PSBConfPriority, cfg)
		if psb.CPU.DMissRate() >= base.CPU.DMissRate() {
			t.Errorf("%s: PSB miss rate %.3f not below base %.3f",
				name, psb.CPU.DMissRate(), base.CPU.DMissRate())
		}
	}
}

// TestPrefetchingReducesLoadLatency: Figure 8's shape.
func TestPrefetchingReducesLoadLatency(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{"health", "deltablue"} {
		w := get(t, name)
		base := Run(w, core.None, cfg)
		psb := Run(w, core.PSBConfPriority, cfg)
		if psb.CPU.AvgLoadLatency() >= base.CPU.AvgLoadLatency() {
			t.Errorf("%s: PSB load latency %.1f not below base %.1f",
				name, psb.CPU.AvgLoadLatency(), base.CPU.AvgLoadLatency())
		}
	}
}

// TestDeterminism: identical configuration and seed give identical
// results.
func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 50_000
	w := get(t, "health")
	a := Run(w, core.PSBConfPriority, cfg)
	b := Run(w, core.PSBConfPriority, cfg)
	if a.CPU != b.CPU {
		t.Errorf("CPU stats differ between identical runs:\n%+v\n%+v", a.CPU, b.CPU)
	}
	if a.SB != b.SB {
		t.Errorf("SB stats differ between identical runs:\n%+v\n%+v", a.SB, b.SB)
	}
}

// TestProgressChunksMatchOneStep: a run under WithProgress advances in
// chunks and reports its committed count after each, rising to the
// final count, and its Result equals the single-step run's in both
// cycle modes. Sampled runs do not report.
func TestProgressChunksMatchOneStep(t *testing.T) {
	for _, tc := range []struct {
		bench string
		v     core.Variant
		mode  cpu.CycleMode
	}{
		{"health", core.PSBConfPriority, cpu.CycleModeEvent},
		{"turb3d", core.PCStride, cpu.CycleModeEvent},
		{"deltablue", core.PSBConfRR, cpu.CycleModeAccurate},
	} {
		cfg := testConfig()
		cfg.CPU.CycleMode = tc.mode
		w := get(t, tc.bench)
		want, err := RunChecked(context.Background(), w, tc.v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reports []uint64
		ctx := WithProgress(context.Background(), func(name string, v core.Variant, committed uint64) {
			if name != tc.bench || v != tc.v {
				t.Errorf("report for %s/%s, want %s/%s", name, v, tc.bench, tc.v)
			}
			reports = append(reports, committed)
		})
		got, err := RunChecked(ctx, w, tc.v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s (%s): chunked result differs from the single-step run", tc.bench, tc.v, tc.mode)
		}
		if n := uint64(len(reports)); n < cfg.MaxInsts/progressChunk || reports[n-1] != want.CPU.Committed {
			t.Errorf("%s/%s: %d reports ending at %v, want at least %d ending at %d",
				tc.bench, tc.v, n, reports[len(reports)-1:], cfg.MaxInsts/progressChunk, want.CPU.Committed)
		}
		for i := 1; i < len(reports); i++ {
			if reports[i] <= reports[i-1] {
				t.Fatalf("%s/%s: reports %v do not rise", tc.bench, tc.v, reports)
			}
		}
	}

	calls := 0
	ctx := WithProgress(context.Background(), func(string, core.Variant, uint64) { calls++ })
	if _, err := RunChecked(ctx, get(t, "health"), core.None, sampledConfig()); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("a sampled run reported progress %d times", calls)
	}
}

func TestFig4Collection(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 60_000
	cfg.CollectFig4 = true
	r := Run(get(t, "health"), core.None, cfg)
	if r.Hist == nil {
		t.Fatal("histogram not collected")
	}
	if r.Hist.Misses() == 0 {
		t.Fatal("histogram observed no misses")
	}
	p16 := r.Hist.PercentPredictable(16)
	p4 := r.Hist.PercentPredictable(4)
	if p16 < p4 {
		t.Errorf("predictability not monotone: 16b %.2f < 4b %.2f", p16, p4)
	}
	if p16 < 0.5 {
		t.Errorf("health 16-bit predictability = %.2f, want >= 0.5 (paper: near total)", p16)
	}
}

// TestSpeedupLargelyCacheIndependent: Figure 10's shape — the PSB
// speedup persists across L1 configurations.
func TestSpeedupLargelyCacheIndependent(t *testing.T) {
	w := get(t, "health")
	for _, cc := range []struct {
		size, ways int
	}{{16 << 10, 4}, {32 << 10, 2}, {32 << 10, 4}} {
		cfg := testConfig()
		cfg.Mem.L1D.SizeBytes = cc.size
		cfg.Mem.L1D.Ways = cc.ways
		base := Run(w, core.None, cfg)
		psb := Run(w, core.PSBConfPriority, cfg)
		if sp := psb.SpeedupOver(base); sp < 5 {
			t.Errorf("L1 %dK/%d-way: speedup %.1f%%, want >= 5%%", cc.size>>10, cc.ways, sp)
		}
	}
}

// TestPriorWorkComparators: the demand-based prefetchers run and the
// paper's qualitative ranking holds — the demand-triggered Markov
// prefetcher helps pointer code but cannot run ahead like PSB on
// deltablue's long chains.
func TestPriorWorkComparators(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 250_000
	w := get(t, "deltablue")
	base := Run(w, core.None, cfg)
	mpf := Run(w, core.MarkovPrefetch, cfg)
	psb := Run(w, core.PSBConfPriority, cfg)
	if mpf.SB.PrefetchesIssued == 0 {
		t.Fatal("Markov prefetcher issued nothing")
	}
	if mpf.IPC() <= base.IPC() {
		t.Errorf("MarkovPF IPC %.3f not above base %.3f", mpf.IPC(), base.IPC())
	}
	if psb.IPC() <= mpf.IPC() {
		t.Errorf("PSB IPC %.3f not above demand-Markov %.3f (running ahead should win)",
			psb.IPC(), mpf.IPC())
	}
	nlp := Run(w, core.NextLine, cfg)
	if nlp.SB.PrefetchesIssued == 0 {
		t.Error("NLP issued nothing")
	}
}

// TestStreamTLBCachingNeutral: §4.5 — caching translations per buffer
// removes TLB lookups without changing performance materially.
func TestStreamTLBCachingNeutral(t *testing.T) {
	cfg := testConfig()
	w := get(t, "sis")
	off := Run(w, core.PSBConfPriority, cfg)
	cfg.Opts.Buffers.CacheTLBInBuffer = true
	on := Run(w, core.PSBConfPriority, cfg)
	if on.SB.TLBSkipped == 0 {
		t.Fatal("no TLB lookups skipped with caching on")
	}
	ratio := on.IPC() / off.IPC()
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("TLB caching changed IPC by %.1f%%, expected neutral", (ratio-1)*100)
	}
}

// TestSummaryRenders exercises the one-line formatter.
func TestSummaryRenders(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInsts = 20_000
	r := Run(get(t, "health"), core.None, cfg)
	if s := r.Summary(); len(s) == 0 {
		t.Error("empty summary")
	}
}
