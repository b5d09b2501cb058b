package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The extension studies go beyond the paper's figures: the prior-work
// prefetchers of §3 as working comparators, the §2 predictors directing
// one engine, the higher-order Markov comparison of §2.2, the
// loop-unrolling remark of §6, and the per-buffer TLB caching
// suggested in §4.5.

// PriorWork compares the full lineage of prefetchers the paper builds
// on — next-line prefetching, the demand-based Markov prefetcher,
// Jouppi's sequential stream buffers, Farkas's PC-stride buffers — to
// predictor-directed stream buffers, as percent speedup over base.
func (s Studies) PriorWork() *stats.Table {
	var settings []setting
	for _, v := range []core.Variant{core.NextLine, core.MarkovPrefetch,
		core.Sequential, core.MinDeltaStride, core.PCStride, core.PSBConfPriority} {
		settings = append(settings, setting{v.String(), s.cfg.Scheme(v)})
	}
	t := s.columns("Extension: prior-work prefetchers vs PSB (% speedup over base)", "program",
		workload.All(), settings)
	t.AddNote("demand-triggered schemes (NextLine, MarkovPF) cannot run ahead of the miss stream (§3.2/3.3)")
	return t
}

// PredictorShootout isolates the choice of address predictor: the same
// ConfAlloc-Priority stream-buffer engine is directed by each of the §2
// predictors. The paper: "we examined several types of predictors ...
// but only provide results for a SFM table, as it performed uniformly
// better."
func (s Studies) PredictorShootout() *stats.Table {
	var settings []setting
	for _, p := range []struct {
		name string
		pred core.Predictor
	}{{"PC-stride", core.PredPCStride}, {"Markov-only", core.PredMarkovOnly},
		{"Correlated", core.PredCorrelated}, {"SFM", core.PredSFM}} {
		settings = append(settings, s.psb(p.name, func(sc *core.Scheme) { sc.Predictor = p.pred }))
	}
	t := s.columns("Extension: predictor shootout (ConfAlloc-Priority engine, % speedup over base)", "program",
		workload.All(), settings)
	t.AddNote("paper §2/§4.2: the stride-filtered Markov predictor performed uniformly better than its components")
	return t
}

// AblationUnrolling reruns §6's loop-unrolling observation: unrolling
// a hardware-predictable loop multiplies its load PCs, so one array
// stream becomes many competing streams — degrading stream-buffer
// performance as the unroll factor passes the buffer count.
func (s Studies) AblationUnrolling() *stats.Table {
	unrolls := []int{1, 2, 4, 8, 16}
	var ws []workload.Workload
	for _, u := range unrolls {
		ws = append(ws, workload.Workload{
			Name: fmt.Sprintf("sweep-u%d", u),
			Build: func(seed int64) *vm.Machine {
				return workload.BuildUnrolledSweep(4096, 64, u, seed)
			},
		})
	}
	t := s.columns("Extension: loop unrolling vs stream buffers (strided sweep, % speedup over same-unroll base)",
		"unroll", ws, []setting{{"PC-stride", s.cfg.Scheme(core.PCStride)},
			{"ConfAlloc-Priority", s.cfg.Scheme(core.PSBConfPriority)}})
	for j, u := range unrolls {
		t.Rows[j][0] = fmt.Sprintf("%d", u) // label rows by unroll factor, not workload name
	}
	t.AddNote("paper §6: unrolling increases load instructions and can degrade stream buffers; " +
		"a predictable loop may do better NOT unrolled, letting the buffers hide the latency")
	return t
}

// AblationMarkovOrder reruns the paper's §2.2 comparison: first-order
// vs second-order Markov prediction inside the SFM predictor. The
// paper "saw little to no improvement in prediction accuracy and
// coverage over first order".
func (s Studies) AblationMarkovOrder() *stats.Table {
	t := stats.NewTable("Extension: Markov order (ConfAlloc-Priority PSB)",
		"order", "health speedup", "burg speedup", "deltablue speedup")
	var settings []setting
	for _, order := range []int{1, 2} {
		settings = append(settings, s.psb(stats.F1(float64(order)), func(sc *core.Scheme) { sc.SFM.MarkovOrder = order }))
	}
	s.rows(t, workloads("health", "burg", "deltablue"), settings, sweep.speedups)
	t.AddNote("paper §2.2: higher-order Markov provided little to no improvement")
	return t
}

// AblationStreamTLB evaluates §4.5's suggestion: caching the page
// translation in each stream buffer so prefetches only consult the
// TLB on page crossings.
func (s Studies) AblationStreamTLB() *stats.Table {
	t := stats.NewTable("Extension: per-buffer TLB caching (ConfAlloc-Priority)",
		"caching", "sis speedup", "sis TLB skipped", "gs speedup", "gs TLB skipped")
	settings := []setting{
		s.psb("off", func(sc *core.Scheme) { sc.Buffers.CacheTLBInBuffer = false }),
		s.psb("on", func(sc *core.Scheme) { sc.Buffers.CacheTLBInBuffer = true }),
	}
	s.rows(t, workloads("sis", "gs"), settings, func(r sweep, i int) []string {
		skipped := func(j int) string { return stats.F1(float64(r.at(i, j).SB.TLBSkipped)) }
		return []string{r.speedup(i, 0), skipped(0), r.speedup(i, 1), skipped(1)}
	})
	t.AddNote("paper §4.5: translations could be stored per stream buffer; a lookup is then needed only on page crossings")
	return t
}
