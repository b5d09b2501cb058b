// Package repro's benchmark harness regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks, plus the
// ablation studies from DESIGN.md. Each benchmark iteration performs
// one full regeneration of its artifact and reports the headline
// metric(s) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the harness and prints the reproduced numbers. Instruction
// budgets are reduced relative to cmd/psbtables to keep the suite's
// runtime reasonable; run `go run ./cmd/psbtables -all -insts 1000000`
// for higher-fidelity numbers.
package repro

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchConfig returns the shared, reduced-budget configuration.
func benchConfig() sim.Config {
	cfg := sim.Default()
	cfg.MaxInsts = 120_000
	return cfg
}

// logTable prints the regenerated artifact once per benchmark run.
func logTable(b *testing.B, t *stats.Table) {
	b.Helper()
	b.Log("\n" + t.String())
}

func BenchmarkTable2Baseline(b *testing.B) {
	cfg := benchConfig()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		m := &experiments.Matrix{Cfg: cfg,
			Results: map[string]map[core.Variant]sim.Result{}}
		// Table 2 only needs the base column.
		for _, w := range workload.All() {
			m.Results[w.Name] = map[core.Variant]sim.Result{
				core.None: sim.Run(w, core.None, cfg),
			}
		}
		t = experiments.Table2(m)
	}
	logTable(b, t)
}

func BenchmarkFig4DeltaBits(b *testing.B) {
	cfg := benchConfig()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig4(cfg)
	}
	logTable(b, t)
}

// figBench shares one matrix build per iteration across a figure.
func figBench(b *testing.B, fig func(*experiments.Matrix) *stats.Table) {
	b.Helper()
	cfg := benchConfig()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		m := experiments.RunMatrix(cfg)
		t = fig(m)
	}
	logTable(b, t)
}

func BenchmarkFig5Speedup(b *testing.B)     { figBench(b, experiments.Fig5) }
func BenchmarkFig6Accuracy(b *testing.B)    { figBench(b, experiments.Fig6) }
func BenchmarkFig7MissRates(b *testing.B)   { figBench(b, experiments.Fig7) }
func BenchmarkFig8LoadLatency(b *testing.B) { figBench(b, experiments.Fig8) }
func BenchmarkFig9BusUtil(b *testing.B)     { figBench(b, experiments.Fig9) }

func BenchmarkFig10CacheSweep(b *testing.B) {
	cfg := benchConfig()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig10(cfg)
	}
	logTable(b, t)
}

func BenchmarkFig11Disambiguation(b *testing.B) {
	cfg := benchConfig()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig11(cfg)
	}
	logTable(b, t)
}

// --- Ablations (DESIGN.md §5) ---

func ablationBench(b *testing.B, run func(experiments.Studies) *stats.Table) {
	b.Helper()
	studies := experiments.NewStudies(benchConfig())
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = run(studies)
	}
	logTable(b, t)
}

func BenchmarkAblationMarkovDelta(b *testing.B) {
	ablationBench(b, experiments.Studies.AblationMarkovDelta)
}
func BenchmarkAblationAllocation(b *testing.B) {
	ablationBench(b, experiments.Studies.AblationAllocation)
}
func BenchmarkAblationScheduler(b *testing.B) {
	ablationBench(b, experiments.Studies.AblationScheduler)
}
func BenchmarkAblationGeometry(b *testing.B) { ablationBench(b, experiments.Studies.AblationGeometry) }
func BenchmarkAblationMarkovSize(b *testing.B) {
	ablationBench(b, experiments.Studies.AblationMarkovSize)
}
func BenchmarkAblationOverlap(b *testing.B) { ablationBench(b, experiments.Studies.AblationOverlap) }

// --- Extensions (prior work, Markov order, per-buffer TLB) ---

func BenchmarkExtensionPriorWork(b *testing.B) { ablationBench(b, experiments.Studies.PriorWork) }
func BenchmarkExtensionMarkovOrder(b *testing.B) {
	ablationBench(b, experiments.Studies.AblationMarkovOrder)
}
func BenchmarkExtensionStreamTLB(b *testing.B) {
	ablationBench(b, experiments.Studies.AblationStreamTLB)
}
func BenchmarkExtensionUnrolling(b *testing.B) {
	ablationBench(b, experiments.Studies.AblationUnrolling)
}
func BenchmarkExtensionShootout(b *testing.B) {
	ablationBench(b, experiments.Studies.PredictorShootout)
}

// --- Parallel experiment runner ---

// matrixSims is the number of full-machine simulations in one matrix.
func matrixSims() int { return len(workload.All()) * len(experiments.Schemes()) }

// BenchmarkRunMatrixSerial regenerates the Figure 5-9 matrix one
// simulation at a time, reporting matrix throughput in sims/sec.
func BenchmarkRunMatrixSerial(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxInsts = 60_000
	cfg.Workers = 0
	for i := 0; i < b.N; i++ {
		experiments.RunMatrix(cfg)
	}
	b.ReportMetric(float64(matrixSims()*b.N)/b.Elapsed().Seconds(), "sims/sec")
}

// BenchmarkRunMatrixParallel regenerates the same matrix with a worker
// per core, reporting sims/sec plus the measured speedup over a serial
// regeneration timed outside the benchmark loop. On a multi-core
// machine the speedup approaches min(cores, concurrent-job slack).
func BenchmarkRunMatrixParallel(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxInsts = 60_000

	serialCfg := cfg
	serialCfg.Workers = 0
	start := time.Now()
	experiments.RunMatrix(serialCfg)
	serialSec := time.Since(start).Seconds()

	cfg.Workers = -1 // one worker per core
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunMatrix(cfg)
	}
	perMatrix := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(matrixSims())/perMatrix, "sims/sec")
	b.ReportMetric(serialSec/perMatrix, "speedup")
}

// BenchmarkRunMatrixTraced regenerates the matrix with the in-memory
// trace cache and a worker per core — the fastest configuration —
// reporting sims/sec plus the measured speedup over an untraced serial
// regeneration timed outside the benchmark loop. The first iteration
// records each workload once; later iterations replay warm recordings,
// which is the steady state the experiment drivers run in.
func BenchmarkRunMatrixTraced(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxInsts = 60_000

	serialCfg := cfg
	serialCfg.Workers = 0
	start := time.Now()
	experiments.RunMatrix(serialCfg)
	serialSec := time.Since(start).Seconds()

	cfg.Workers = -1
	cfg.TraceMode = sim.TraceMemory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunMatrix(cfg)
	}
	perMatrix := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(matrixSims())/perMatrix, "sims/sec")
	b.ReportMetric(serialSec/perMatrix, "speedup")
}

// --- Headline single-number benchmarks ---

// BenchmarkSpeedupPSBOverBase reports the average PSB (ConfAlloc-
// Priority) speedup over no prefetching across the pointer-intensive
// benchmarks — the paper's headline "30% speedup on average" claim.
func BenchmarkSpeedupPSBOverBase(b *testing.B) {
	cfg := benchConfig()
	var avg float64
	for i := 0; i < b.N; i++ {
		var sum float64
		n := 0
		for _, w := range workload.Pointer() {
			base := sim.Run(w, core.None, cfg)
			psb := sim.Run(w, core.PSBConfPriority, cfg)
			sum += psb.SpeedupOver(base)
			n++
		}
		avg = sum / float64(n)
	}
	b.ReportMetric(avg, "%speedup")
}

// BenchmarkSpeedupPSBOverPCStride reports the average PSB speedup over
// PC-stride stream buffers on pointer benchmarks — the paper's "10%
// over stride-based stream buffers" claim.
func BenchmarkSpeedupPSBOverPCStride(b *testing.B) {
	cfg := benchConfig()
	var avg float64
	for i := 0; i < b.N; i++ {
		var sum float64
		n := 0
		for _, w := range workload.Pointer() {
			pcs := sim.Run(w, core.PCStride, cfg)
			psb := sim.Run(w, core.PSBConfPriority, cfg)
			sum += psb.SpeedupOver(pcs)
			n++
		}
		avg = sum / float64(n)
	}
	b.ReportMetric(avg, "%speedup")
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated instructions per second) on the health benchmark.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchConfig()
	w, err := workload.ByName("health")
	if err != nil {
		b.Fatal(err)
	}
	var committed uint64
	for i := 0; i < b.N; i++ {
		r := sim.Run(w, core.PSBConfPriority, cfg)
		committed += r.CPU.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "inst/s")
}

// sanity check that every artifact title mentions its figure/table.
func TestArtifactTitles(t *testing.T) {
	cfg := benchConfig()
	cfg.MaxInsts = 20_000
	m := experiments.RunMatrix(cfg)
	cases := map[string]*stats.Table{
		"Table 2":   experiments.Table2(m),
		"Figure 4":  experiments.Fig4(cfg),
		"Figure 5":  experiments.Fig5(m),
		"Figure 6":  experiments.Fig6(m),
		"Figure 7":  experiments.Fig7(m),
		"Figure 8":  experiments.Fig8(m),
		"Figure 9":  experiments.Fig9(m),
		"Figure 10": experiments.Fig10(cfg),
		"Figure 11": experiments.Fig11(cfg),
	}
	for want, table := range cases {
		if !strings.Contains(table.Title, want) {
			t.Errorf("artifact title %q does not mention %q", table.Title, want)
		}
		// Titles print verbatim; only notes are format strings.
		if strings.Contains(table.Title, "%%") {
			t.Errorf("artifact title %q prints a literal %%%%", table.Title)
		}
		if len(table.Rows) != 6 {
			t.Errorf("%s has %d rows, want 6 benchmarks", want, len(table.Rows))
		}
	}
}
