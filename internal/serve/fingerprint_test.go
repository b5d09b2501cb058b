package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// randomExactConfig derives a valid exact configuration from seed, in
// the manner of internal/sim's randomConfig: it perturbs structure
// sizes, latencies and buffer geometry, which shift event timing.
func randomExactConfig(seed int64) sim.Config {
	r := rand.New(rand.NewSource(seed))
	pick := func(vs ...int) int { return vs[r.Intn(len(vs))] }
	cfg := sim.Default()
	cfg.MaxInsts = uint64(5_000 + r.Intn(3)*2_500)
	cfg.Seed = int64(1 + r.Intn(3))
	cfg.CPU.ROBSize = pick(32, 64, 128)
	cfg.CPU.LSQSize = cfg.CPU.ROBSize / 2
	cfg.CPU.MispredictPenalty = uint64(pick(6, 8, 10))
	cfg.Mem.L1D.SizeBytes = pick(8<<10, 32<<10)
	cfg.Mem.MemLatency = uint64(pick(80, 120, 200))
	cfg.Mem.DMSHRs = pick(4, 8, 16)
	cfg.Opts.Buffers.NumBuffers = pick(2, 4, 8)
	cfg.Opts.Buffers.CacheTLBInBuffer = r.Intn(2) == 0
	return cfg
}

// TestEqualFingerprintsEqualBytes is the cache-key property: jobs with
// equal fingerprints produce equal canonical bytes, whichever way they
// run. A few random exact configurations, each under the default, an
// event and an accurate clock, run serially, on a two-worker pool,
// through an in-process server's CellRunner, and through a result
// store's Save and Load. Grouped by fingerprint, every group must hold
// one byte string. Sampled cells stay out: their work counters depend
// on which cell generated a shared checkpoint first.
func TestEqualFingerprintsEqualBytes(t *testing.T) {
	ws, variants := workload.All(), core.Variants()
	modes := []cpu.CycleMode{cpu.CycleModeDefault, cpu.CycleModeEvent, cpu.CycleModeAccurate}
	var jobs []runner.Job
	for seed := int64(1); seed <= 3; seed++ {
		cfg := randomExactConfig(seed)
		for _, m := range modes {
			cfg.CPU.CycleMode = m
			jobs = append(jobs, runner.Job{Workload: ws[seed%int64(len(ws))], Variant: variants[seed%int64(len(variants))], Config: cfg})
		}
	}

	groups := make(map[string]map[string][]string) // fingerprint -> bytes -> where
	add := func(way string, i int, res sim.Result) {
		fp := jobs[i].Fingerprint()
		if groups[fp] == nil {
			groups[fp] = make(map[string][]string)
		}
		b := string(results.Encode(res))
		groups[fp][b] = append(groups[fp][b], fmt.Sprintf("%s job %d (%s)", way, i, jobs[i].Config.CPU.CycleMode))
	}
	addCells := func(way string, cells []runner.CellResult) {
		for i, c := range cells {
			if c.Err != nil {
				t.Fatalf("%s job %d: %v", way, i, c.Err)
			}
			add(way, i, c.Result)
		}
	}

	serial := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		res, err := sim.RunChecked(context.Background(), j.Workload, j.Variant, j.Config)
		if err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		serial[i] = res
		add("serial", i, res)
	}

	cells, err := runner.New(2).RunChecked(context.Background(), jobs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addCells("pool", cells)

	s := New(Config{Base: tinyCfg(), Workers: 2})
	t.Cleanup(s.Close)
	addCells("server", s.CellRunner()(jobs))

	store := results.New(t.TempDir())
	for i, j := range jobs {
		if err := store.Save(j.Fingerprint(), serial[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		res, err := store.Load(j.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		add("store", i, res)
	}

	for fp, byBytes := range groups {
		if len(byBytes) == 1 {
			continue
		}
		var where []string
		for _, w := range byBytes {
			sort.Strings(w)
			where = append(where, fmt.Sprint(w))
		}
		sort.Strings(where)
		t.Errorf("fingerprint %s gives %d different byte strings:\n%s", fp, len(byBytes), strings.Join(where, "\n"))
	}
}
