package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The paper's conclusions, and the reproduction's known deviations
// from them, as assertions. They run in exact mode on the rows and
// workloads the tables render, at the budget of the committed tables.

// TestAllocationClaims checks the allocation ablation at 300K:
//   - paper §4.3: on sis, confidence allocation (threshold 1) beats
//     allocating a stream buffer on every miss in both speedup and
//     accuracy;
//   - a deviation from the paper: on health, allocating on every miss
//     beats both the two-miss and the confidence filter. Its L1-L2 bus
//     has bandwidth to spare, so coverage pays more than accuracy.
func TestAllocationClaims(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 300_000
	cfg.Workers = -1
	rows := map[string]int{"none (always)": 0, "two-miss": 1, "confidence >= 1": 2}
	var ws []workload.Workload
	picked := make([]setting, len(rows))
	Studies{cfg, func(w []workload.Workload, settings []setting) sweep {
		ws = w
		for _, s := range settings {
			if i, ok := rows[s.name]; ok {
				picked[i] = s
			}
		}
		return dry(w, settings)
	}}.AblationAllocation()
	if len(ws) != 2 || ws[0].Name != "sis" || ws[1].Name != "health" {
		t.Fatalf("allocation table runs %v, want sis and health", ws)
	}
	r := simulate(cfg)(ws, picked)
	speedup := func(i, j int) float64 { return r.at(i, j).SpeedupOver(r.res[j]) }
	accuracy := func(i int) float64 { return r.at(i, 0).SB.Accuracy() }
	const always, twoMiss, conf = 0, 1, 2
	const sis, health = 0, 1

	if speedup(conf, sis) <= speedup(always, sis) || accuracy(conf) <= accuracy(always) {
		t.Errorf("sis: confidence >= 1 gives %+.1f%% at %.1f%% accuracy, always-allocate %+.1f%% at %.1f%%; "+
			"the paper's confidence allocation should win both",
			speedup(conf, sis), 100*accuracy(conf), speedup(always, sis), 100*accuracy(always))
	}
	if speedup(always, health) <= speedup(twoMiss, health) || speedup(always, health) <= speedup(conf, health) {
		t.Errorf("health: always-allocate gives %+.1f%%, two-miss %+.1f%%, confidence %+.1f%%; "+
			"the known deviation (always-allocate wins) changed",
			speedup(always, health), speedup(twoMiss, health), speedup(conf, health))
	}
}
