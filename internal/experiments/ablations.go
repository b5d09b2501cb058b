package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sbuf"
	"repro/internal/stats"
)

// The ablation studies isolate the design choices DESIGN.md calls out.
// Each runs a small set of benchmarks (the ones the choice matters
// for) under edits of the resolved ConfAlloc-Priority scheme.

// AblationMarkovDelta compares the differential Markov table (the
// paper's 16-bit deltas) against narrower widths and against absolute
// addressing, reporting both performance and the implied data storage.
func (s Studies) AblationMarkovDelta() *stats.Table {
	t := stats.NewTable("Ablation: Markov entry encoding (ConfAlloc-Priority PSB)",
		"encoding", "data bytes", "health speedup", "deltablue speedup")
	var settings []setting
	for _, bits := range []int{8, 12, 16, 24} {
		settings = append(settings, s.psb(fmt.Sprintf("%d-bit delta", bits), func(sc *core.Scheme) { sc.SFM.DeltaBits = bits }))
	}
	settings = append(settings, s.psb("absolute", func(sc *core.Scheme) { sc.SFM.DeltaBits = 0 }))
	s.rows(t, workloads("health", "deltablue"), settings, func(r sweep, i int) []string {
		return append([]string{dataBytes(settings[i].scheme.SFM)}, r.speedups(i)...)
	})
	t.AddNote("paper §4.2: 16-bit deltas capture almost all transitions at a quarter of the storage")
	return t
}

// dataBytes renders the data storage of the Markov table c sizes.
func dataBytes(c predict.SFMConfig) string {
	return fmt.Sprintf("%d", predict.NewMarkovTable(c.MarkovEntries, c.BlockShift, c.DeltaBits, c.TagBits).DataBytes())
}

// AblationAllocation sweeps the allocation filter and the confidence
// threshold on the thrash-prone benchmark (sis) and a well-behaved one
// (health).
func (s Studies) AblationAllocation() *stats.Table {
	t := stats.NewTable("Ablation: allocation filter (priority scheduling)",
		"filter", "sis speedup", "sis accuracy", "health speedup")
	add := func(name string, alloc sbuf.AllocPolicy, threshold int) setting {
		return s.psb(name, func(sc *core.Scheme) { sc.Buffers.Alloc, sc.Buffers.ConfThreshold = alloc, threshold })
	}
	settings := []setting{add("none (always)", sbuf.AllocAlways, 0), add("two-miss", sbuf.AllocTwoMiss, 0)}
	for _, th := range []int{1, 2, 4, 6} {
		settings = append(settings, add(fmt.Sprintf("confidence >= %d", th), sbuf.AllocConfidence, th))
	}
	s.rows(t, workloads("sis", "health"), settings, func(r sweep, i int) []string {
		return []string{r.speedup(i, 0), stats.Pct(r.at(i, 0).SB.Accuracy()), r.speedup(i, 1)}
	})
	t.AddNote("paper §4.3: threshold 1 is appropriate; confidence eliminates stream thrashing on sis")
	return t
}

// AblationScheduler sweeps the priority-counter parameters (hit
// increment and aging period) against round-robin on the
// bandwidth-bound benchmarks.
func (s Studies) AblationScheduler() *stats.Table {
	t := stats.NewTable("Ablation: prefetch scheduling (confidence allocation)",
		"scheduler", "deltablue speedup", "sis speedup")
	add := func(name string, sched sbuf.SchedPolicy, inc, aging int) setting {
		return s.psb(name, func(sc *core.Scheme) {
			sc.Buffers.Sched, sc.Buffers.HitIncrement, sc.Buffers.AgingPeriod = sched, inc, aging
		})
	}
	settings := []setting{
		add("round-robin", sbuf.SchedRoundRobin, 2, 10),
		add("priority +2/hit, age 10", sbuf.SchedPriority, 2, 10),
		add("priority +1/hit, age 10", sbuf.SchedPriority, 1, 10),
		add("priority +4/hit, age 10", sbuf.SchedPriority, 4, 10),
		add("priority +2/hit, age 5", sbuf.SchedPriority, 2, 5),
		add("priority +2/hit, age 20", sbuf.SchedPriority, 2, 20),
	}
	s.rows(t, workloads("deltablue", "sis"), settings, sweep.speedups)
	t.AddNote("paper §4.4: +2 per hit with a 10-miss aging period provided decent results")
	return t
}

// AblationGeometry sweeps stream-buffer count and entries per buffer.
func (s Studies) AblationGeometry() *stats.Table {
	t := stats.NewTable("Ablation: stream-buffer geometry (ConfAlloc-Priority, health)",
		"buffers", "2 entries", "4 entries", "8 entries")
	counts, entries := []int{2, 4, 8, 16}, []int{2, 4, 8}
	var settings []setting
	for _, nb := range counts {
		for _, ne := range entries {
			settings = append(settings, s.psb(fmt.Sprintf("%dx%d", nb, ne), func(sc *core.Scheme) {
				sc.Buffers.NumBuffers, sc.Buffers.EntriesPerBuffer = nb, ne
			}))
		}
	}
	r := s.run(workloads("health"), settings)
	for row, nb := range counts {
		i := row * len(entries) // settings run nb-major, one column per entry count
		t.AddRow(fmt.Sprintf("%d", nb), r.speedup(i, 0), r.speedup(i+1, 0), r.speedup(i+2, 0))
	}
	t.AddNote("paper evaluates 8 buffers x 4 entries")
	return t
}

// AblationMarkovSize sweeps the Markov table size.
func (s Studies) AblationMarkovSize() *stats.Table {
	t := stats.NewTable("Ablation: Markov table entries (ConfAlloc-Priority)",
		"entries", "data bytes", "health speedup", "deltablue speedup")
	var settings []setting
	for _, entries := range []int{256, 512, 1024, 2048, 4096, 8192} {
		settings = append(settings, s.psb(fmt.Sprintf("%d", entries), func(sc *core.Scheme) { sc.SFM.MarkovEntries = entries }))
	}
	s.rows(t, workloads("health", "deltablue"), settings, func(r sweep, i int) []string {
		return append([]string{dataBytes(settings[i].scheme.SFM)}, r.speedups(i)...)
	})
	t.AddNote("paper uses 2K entries (4KB of data storage)")
	return t
}

// AblationOverlap toggles the non-overlapping-streams check.
func (s Studies) AblationOverlap() *stats.Table {
	t := stats.NewTable("Ablation: non-overlap check (ConfAlloc-Priority)",
		"check", "health speedup", "health issued", "deltablue speedup", "deltablue issued")
	settings := []setting{
		s.psb("on", func(sc *core.Scheme) { sc.Buffers.NonOverlapCheck = true }),
		s.psb("off", func(sc *core.Scheme) { sc.Buffers.NonOverlapCheck = false }),
	}
	s.rows(t, workloads("health", "deltablue"), settings, func(r sweep, i int) []string {
		issued := func(j int) string { return fmt.Sprintf("%d", r.at(i, j).SB.PrefetchesIssued) }
		return []string{r.speedup(i, 0), issued(0), r.speedup(i, 1), issued(1)}
	})
	t.AddNote("Farkas et al.: enforcing non-overlapping streams saves bus bandwidth")
	return t
}
