package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sbuf"
)

func sampledConfig() Config {
	cfg := Default()
	cfg.MaxInsts = 120_000
	cfg.TraceMode = TraceMemory
	cfg.SampleMode = SampleOn
	return cfg
}

// TestSampledTracksDetailed compares sampled IPC against the exact
// detailed run for representative workloads and schemes. The CI
// accuracy gate (psbtables -sample-accuracy) enforces ±3% over the
// full matrix at 500K instructions; this in-tree check runs at 120K
// (≈5 intervals) where the statistics are rougher, so it uses a wider
// bound and logs the actual errors.
func TestSampledTracksDetailed(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-detailed comparison is slow")
	}
	for _, name := range []string{"health", "turb3d", "burg"} {
		for _, v := range []core.Variant{core.None, core.PSBConfPriority} {
			name, v := name, v
			t.Run(name+"/"+v.String(), func(t *testing.T) {
				t.Parallel()
				w := get(t, name)
				exact := Run(w, v, func() Config {
					cfg := Default()
					cfg.MaxInsts = 120_000
					cfg.TraceMode = TraceMemory
					return cfg
				}())
				sampled := Run(w, v, sampledConfig())
				if sampled.Sampled == nil {
					t.Fatal("sampled run carries no estimate")
				}
				est := sampled.Sampled
				relErr := 100 * math.Abs(est.IPC-exact.IPC()) / exact.IPC()
				t.Logf("exact IPC %.4f, sampled %.4f (CI [%.4f, %.4f], %d intervals, CoV %.3f): rel err %.2f%%",
					exact.IPC(), est.IPC, est.IPCLow, est.IPCHigh, est.Intervals, est.CoV, relErr)
				if relErr > 10 {
					t.Errorf("sampled IPC off by %.2f%%, want <= 10%% at this scale", relErr)
				}
				if est.Intervals < 4 {
					t.Errorf("only %d measurement intervals at 120K insts", est.Intervals)
				}
				if est.MeasuredInsts+est.WarmupInsts >= exact.CPU.Committed {
					t.Errorf("sampling simulated %d insts in detail of %d total — no savings",
						est.MeasuredInsts+est.WarmupInsts, exact.CPU.Committed)
				}
			})
		}
	}
}

// TestSampledCheckpointReuse pins the tentpole sharing property: N
// schemes over one workload fast-forward exactly once. The first cell
// generates every checkpoint (all misses); each later scheme resumes
// from the shared store without any functional work.
func TestSampledCheckpointReuse(t *testing.T) {
	cfg := sampledConfig()
	cfg.MaxInsts = 100_000
	cfg.Seed = 777 // private stream: no other test warms these checkpoints
	w := get(t, "health")

	first := Run(w, core.None, cfg)
	est := first.Sampled
	if est.CheckpointHits != 0 || est.CheckpointMisses == 0 {
		t.Fatalf("first scheme: %d misses, %d hits, want all misses (it generates every checkpoint)",
			est.CheckpointMisses, est.CheckpointHits)
	}
	if est.FunctionalInsts == 0 {
		t.Error("first scheme reports no functional fast-forward work")
	}
	generated := est.CheckpointMisses

	for _, v := range []core.Variant{core.PCStride, core.PSBConfPriority} {
		r := Run(w, v, cfg)
		est := r.Sampled
		if est.CheckpointHits != generated || est.CheckpointMisses != 0 {
			t.Errorf("%s: %d hits, %d misses, want all %d checkpoints shared",
				v, est.CheckpointHits, est.CheckpointMisses, generated)
		}
		if est.FunctionalInsts != 0 {
			t.Errorf("%s: %d functional insts, want 0 (fast-forward must happen once)", v, est.FunctionalInsts)
		}
		if est.Intervals != first.Sampled.Intervals || est.CertaintyRuns != first.Sampled.CertaintyRuns {
			t.Errorf("%s: schedule differs across schemes (%d/%d intervals, %d/%d certainty runs)",
				v, est.Intervals, first.Sampled.Intervals, est.CertaintyRuns, first.Sampled.CertaintyRuns)
		}
	}
}

// TestSampledRunsAreReproducible: same sampled configuration, same
// measurements — the checkpoint store must not leak request-order
// effects into the simulated numbers. Only the store-traffic
// accounting may differ (the first run generates, the second hits).
func TestSampledRunsAreReproducible(t *testing.T) {
	cfg := sampledConfig()
	cfg.MaxInsts = 60_000
	w := get(t, "gs")
	a := Run(w, core.PSBConfPriority, cfg)
	b := Run(w, core.PSBConfPriority, cfg)
	for _, r := range []*Result{&a, &b} {
		r.Sampled.FunctionalInsts = 0
		r.Sampled.CheckpointHits = 0
		r.Sampled.CheckpointMisses = 0
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("two identical sampled runs measured different results:\n%s\n%s", ja, jb)
	}
}

// TestSampledIntervalAllocations pins the interval machine's reuse: a
// sampled run builds one hierarchy and core and rewarms them at every
// interval, so once the recording and checkpoints are warm, an
// interval allocates its scheme prefetcher (about 50 KB for
// ConfAlloc-Priority) plus its share of the one-time build (about
// 340 KB over this run's 5 intervals). Rebuilding the hierarchy per
// interval adds about 300 KB to each, rebuilding the core about 40 KB.
func TestSampledIntervalAllocations(t *testing.T) {
	cfg := sampledConfig()
	cfg.MaxInsts = 100_000
	cfg.Seed = 778 // private stream: no other test shares its checkpoints
	w := get(t, "health")
	Run(w, core.PSBConfPriority, cfg) // warm the recording and checkpoints

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Run(w, core.PSBConfPriority, cfg)
	runtime.ReadMemStats(&after)
	if r.Sampled.CheckpointMisses != 0 {
		t.Fatalf("measured run generated %d checkpoints, want all warm", r.Sampled.CheckpointMisses)
	}
	intervals := r.Sampled.Intervals + r.Sampled.CertaintyRuns
	perInterval := (after.TotalAlloc - before.TotalAlloc) / uint64(intervals)
	t.Logf("%d intervals, %d bytes allocated per interval", intervals, perInterval)
	if perInterval >= 128<<10 {
		t.Errorf("sampled run allocated %d bytes per interval, want < 128 KB", perInterval)
	}
}

// TestSampledValidation covers the configuration guards.
func TestSampledValidation(t *testing.T) {
	base := sampledConfig()

	// A sampled run replays its stream from the trace cache whatever
	// the trace mode says, so TraceOff is no reason to refuse it.
	cfg := base
	cfg.TraceMode = TraceOff
	if err := cfg.Validate(); err != nil {
		t.Errorf("TraceOff refused for sampling: %v", err)
	}

	cfg = base
	cfg.SampleWarmup = 20_000
	cfg.SampleLen = 10_000
	cfg.SamplePeriod = 25_000
	if err := cfg.Validate(); err == nil {
		t.Error("warmup+len > period accepted")
	}

	cfg = base
	cfg.SampleMode = SampleMode(99)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown sample mode accepted")
	}

}

// TestExactResultJSONHasNoSampledKey: exact mode stays byte-identical
// to pre-sampling artifacts — the Sampled field must vanish entirely
// from encoded exact results.
func TestExactResultJSONHasNoSampledKey(t *testing.T) {
	cfg := Default()
	cfg.MaxInsts = 20_000
	r := Run(get(t, "health"), core.None, cfg)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Sampled") {
		t.Errorf("exact result JSON mentions Sampled: %s", b)
	}

	s := Run(get(t, "health"), core.None, sampledConfig())
	b, err = json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"Sampled"`) {
		t.Error("sampled result JSON does not carry the estimate")
	}
}

// TestAddDeltaCarriesEveryCounter sets every field of the three counter
// types a sampled run aggregates to a distinct value and checks that
// addDelta carries each one: a field it dropped or mixed up would keep
// another field's value.
func TestAddDeltaCarriesEveryCounter(t *testing.T) {
	checkAddDelta[cpu.Stats](t)
	checkAddDelta[sbuf.Stats](t)
	checkAddDelta[mem.CacheStats](t)
}

func checkAddDelta[T any](t *testing.T) {
	var acc, now, before T
	a, n, b := reflect.ValueOf(&acc).Elem(), reflect.ValueOf(&now).Elem(), reflect.ValueOf(&before).Elem()
	for i := 0; i < a.NumField(); i++ {
		if k := a.Field(i).Kind(); k != reflect.Uint64 {
			t.Fatalf("%s.%s is %s: addDelta handles only uint64 counters", a.Type(), a.Type().Field(i).Name, k)
		}
		a.Field(i).SetUint(1_000_000 * uint64(i+1))
		b.Field(i).SetUint(1_000 * uint64(i+1))
		n.Field(i).SetUint(1_000*uint64(i+1) + uint64(i+1))
	}
	got := reflect.ValueOf(addDelta(acc, now, before))
	for i := 0; i < got.NumField(); i++ {
		if want := 1_000_000*uint64(i+1) + uint64(i+1); got.Field(i).Uint() != want {
			t.Errorf("%s.%s: got %d, want %d", a.Type(), a.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
}
