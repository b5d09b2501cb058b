package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sbuf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tinyConfig keeps these structural tests fast; the numerical shapes
// are asserted at full budget by internal/sim's tests and the bench
// harness.
func tinyConfig() sim.Config {
	cfg := sim.Default()
	cfg.MaxInsts = 15_000
	return cfg
}

func TestSchemesOrder(t *testing.T) {
	s := Schemes()
	if s[0] != core.None {
		t.Errorf("first scheme = %v, want base", s[0])
	}
	if len(s) != 6 {
		t.Errorf("schemes = %d, want 6", len(s))
	}
}

func TestMatrixComplete(t *testing.T) {
	m := RunMatrix(tinyConfig())
	if len(m.Results) != 6 {
		t.Fatalf("matrix has %d benchmarks, want 6", len(m.Results))
	}
	for name, per := range m.Results {
		if len(per) != len(Schemes()) {
			t.Errorf("%s has %d schemes, want %d", name, len(per), len(Schemes()))
		}
		base := m.Base(name)
		if base.CPU.Committed == 0 {
			t.Errorf("%s base committed nothing", name)
		}
	}
}

func TestMatrixDerivedTables(t *testing.T) {
	m := RunMatrix(tinyConfig())
	if n := m.Failed(); n != 0 {
		t.Fatalf("%d matrix cell(s) failed", n)
	}
	for _, tb := range []interface{ String() string }{
		Table2(m), Fig5(m), Fig6(m), Fig7(m), Fig8(m), Fig9(m),
	} {
		out := tb.String()
		if len(out) == 0 {
			t.Error("empty table")
		}
		for _, name := range []string{"health", "burg", "deltablue", "gs", "sis", "turb3d"} {
			if !strings.Contains(out, name) {
				t.Errorf("table missing %s:\n%s", name, out)
			}
		}
	}
}

// noERR fails the test if any cell of tb rendered as a failed
// simulation.
func noERR(t *testing.T, tb *stats.Table) {
	t.Helper()
	for _, row := range tb.Rows {
		for _, c := range row {
			if c == "ERR" {
				t.Fatalf("%s: a cell failed:\n%s", tb.Title, tb)
			}
		}
	}
}

func TestFig4Structure(t *testing.T) {
	tb := Fig4(tinyConfig())
	noERR(t, tb)
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig4 rows = %d, want 6", len(tb.Rows))
	}
	if len(tb.Headers) != len(Fig4Widths)+1 {
		t.Errorf("Fig4 headers = %d, want %d", len(tb.Headers), len(Fig4Widths)+1)
	}
}

func TestFig10Structure(t *testing.T) {
	tb := Fig10(tinyConfig())
	noERR(t, tb)
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig10 rows = %d, want 6", len(tb.Rows))
	}
	// program + 3 configs x 2 schemes.
	if len(tb.Headers) != 7 {
		t.Errorf("Fig10 headers = %d, want 7", len(tb.Headers))
	}
}

func TestFig11Structure(t *testing.T) {
	tb := Fig11(tinyConfig())
	noERR(t, tb)
	if len(tb.Rows) != 6 || len(tb.Headers) != 5 {
		t.Errorf("Fig11 shape = %dx%d, want 6x5", len(tb.Rows), len(tb.Headers))
	}
}

// TestRunMatrixParallelDeterminism guards the parallel runner's core
// guarantee: a matrix assembled by concurrent workers is value-equal to
// the serial one. Any shared mutable state leaking between concurrent
// sim.Run calls (predictor tables, workload registries, statistics)
// shows up here as a diff — and as a data race under go test -race.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 60_000
	if testing.Short() {
		cfg.MaxInsts = 15_000
	}
	serial := cfg
	serial.Workers = 0
	parallel := cfg
	parallel.Workers = -1 // one worker per core

	ms := RunMatrix(serial)
	mp := RunMatrix(parallel)
	if ms.Failed() != 0 || mp.Failed() != 0 {
		t.Fatalf("matrix cells failed: serial=%d parallel=%d", ms.Failed(), mp.Failed())
	}
	if len(ms.Results) != len(mp.Results) {
		t.Fatalf("benchmark count differs: serial %d, parallel %d", len(ms.Results), len(mp.Results))
	}
	for name, per := range ms.Results {
		for v, rs := range per {
			rp, ok := mp.Results[name][v]
			if !ok {
				t.Fatalf("parallel matrix missing %s/%s", name, v)
			}
			if !reflect.DeepEqual(rs, rp) {
				t.Errorf("%s/%s: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
					name, v, rs, rp)
			}
		}
	}
}

// TestRunMatrixRecordsFailedCells: RunMatrix and the figure sweeps run
// on the checked runner, so a cell that fails lands in Errs (and
// renders as ERR) instead of panicking out of the whole matrix.
func TestRunMatrixRecordsFailedCells(t *testing.T) {
	cfg := tinyConfig()
	cfg.CPU.WatchdogCycles = 3 // every cell trips the no-commit watchdog
	m := RunMatrix(cfg)
	if want := len(workload.All()) * len(Schemes()); m.Failed() != want {
		t.Fatalf("Failed() = %d, want %d", m.Failed(), want)
	}
	var de *cpu.DeadlockError
	if err := m.Err("health", core.PSBConfPriority); !errors.As(err, &de) {
		t.Errorf("health/ConfAlloc-Priority err = %v, want *cpu.DeadlockError", err)
	}
	for _, tb := range []*stats.Table{Fig5(m), Fig4(cfg), Fig10(cfg), Fig11(cfg)} {
		for _, row := range tb.Rows {
			for _, c := range row[1:] {
				if c != "ERR" {
					t.Fatalf("%s: cell %q, want ERR:\n%s", tb.Title, c, tb)
				}
			}
		}
	}
}

// ablations and extensions list the study tables.
var (
	ablations = map[string]func(Studies) *stats.Table{
		"delta":     Studies.AblationMarkovDelta,
		"alloc":     Studies.AblationAllocation,
		"scheduler": Studies.AblationScheduler,
		"geometry":  Studies.AblationGeometry,
		"size":      Studies.AblationMarkovSize,
		"overlap":   Studies.AblationOverlap,
	}
	extensions = map[string]func(Studies) *stats.Table{
		"prior-work": Studies.PriorWork,
		"shootout":   Studies.PredictorShootout,
		"unrolling":  Studies.AblationUnrolling,
		"order":      Studies.AblationMarkovOrder,
		"tlb":        Studies.AblationStreamTLB,
	}
)

// TestAblationsRun renders every ablation and extension table, and
// checks that one of each renders the same bytes whether its cells
// run serially or spread over workers.
func TestAblationsRun(t *testing.T) {
	ext := tinyConfig()
	ext.MaxInsts = 5_000 // the extension tables run up to 42 cells each
	for _, c := range []struct {
		cfg    sim.Config
		tables map[string]func(Studies) *stats.Table
		par    string
	}{{tinyConfig(), ablations, "alloc"}, {ext, extensions, "tlb"}} {
		for name, table := range c.tables {
			tb := table(NewStudies(c.cfg))
			if tb == nil || len(tb.Rows) == 0 {
				t.Errorf("table %s produced no rows", name)
				continue
			}
			if name != c.par {
				continue
			}
			par := c.cfg
			par.Workers = -1
			if got := table(NewStudies(par)).String(); got != tb.String() {
				t.Errorf("%s with Workers -1 differs from serial:\n%s\nserial:\n%s", name, got, tb)
			}
		}
	}
}

// dry is a sweeper that simulates nothing: every result is zero.
func dry(ws []workload.Workload, settings []setting) sweep {
	return sweep{res: make([]sim.Result, (1+len(settings))*len(ws)), n: len(ws)}
}

type nopFetch struct{}

func (nopFetch) Prefetch(cycle, addr uint64) (uint64, bool) { return cycle + 1, true }
func (nopFetch) BusFreeAt(cycle uint64) bool                { return true }

// TestSettingsAreLive: within one ablation or extension table, no two
// settings reach construction with the same workload, predictor and
// configuration, so no row can repeat another because some step
// overwrote what the row set. Every setting of a table runs on the same
// workloads, so it suffices that the built configurations differ. They
// are read back from the built prefetchers, without simulating.
func TestSettingsAreLive(t *testing.T) {
	for _, tables := range []map[string]func(Studies) *stats.Table{ablations, extensions} {
		for name, table := range tables {
			table(Studies{sim.Default(), func(ws []workload.Workload, settings []setting) sweep {
				if len(settings) < 2 {
					t.Errorf("%s: %d settings, want a sweep", name, len(settings))
				}
				seen := map[string]string{}
				for _, s := range settings {
					built := s.scheme
					if e, ok := built.Build(nopFetch{}).(*sbuf.Engine); ok {
						built.Buffers = e.Config()
					}
					key := fmt.Sprintf("%+v", built)
					if prev, ok := seen[key]; ok {
						t.Errorf("%s: settings %q and %q build the same prefetcher %s", name, prev, s.name, key)
					}
					seen[key] = s.name
				}
				return dry(ws, settings)
			}})
		}
	}
}
