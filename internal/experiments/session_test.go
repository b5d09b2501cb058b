package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// faultyRunner fails the cells selected by bad (keyed by
// workload/variant) and executes the rest normally — fault injection
// for the table renderers without needing a cell to actually crash.
func faultyRunner(bad func(j runner.Job) bool) CellRunner {
	return func(jobs []runner.Job) []runner.CellResult {
		cells := make([]runner.CellResult, len(jobs))
		for i, j := range jobs {
			if bad(j) {
				cells[i] = runner.CellResult{Err: &runner.JobError{
					Workload: j.Workload.Name, Variant: j.Variant,
					Attempts: 1, Err: errors.New("injected failure"),
				}, Attempts: 1}
				continue
			}
			cells[i] = runner.CellResult{Result: sim.Run(j.Workload, j.Variant, j.Config), Attempts: 1}
		}
		return cells
	}
}

// TestPartialMatrixRendersERR fails one benchmark's base cell and one
// other cell, then checks every derived table still renders — with the
// failed cells (and the cells derived from them) marked ERR and all
// other rows intact.
func TestPartialMatrixRendersERR(t *testing.T) {
	victim := workload.All()[1].Name
	m := runMatrixWith(tinyConfig(), faultyRunner(func(j runner.Job) bool {
		// The victim's base dies, plus one scheme cell of another bench.
		return (j.Workload.Name == victim && j.Variant == core.None) ||
			(j.Workload.Name == workload.All()[0].Name && j.Variant == core.PCStride)
	}))

	if m.Failed() != 2 {
		t.Fatalf("Failed() = %d, want 2", m.Failed())
	}
	if m.Err(victim, core.None) == nil {
		t.Fatal("victim base error not recorded")
	}

	for name, tb := range map[string]interface{ String() string }{
		"Table2": Table2(m), "Fig5": Fig5(m), "Fig6": Fig6(m),
		"Fig7": Fig7(m), "Fig8": Fig8(m), "Fig9": Fig9(m),
	} {
		out := tb.String()
		if !strings.Contains(out, "ERR") {
			t.Errorf("%s does not mark the failed cell:\n%s", name, out)
		}
		for _, w := range workload.All() {
			if !strings.Contains(out, w.Name) {
				t.Errorf("%s lost row %s:\n%s", name, w.Name, out)
			}
		}
	}

	// Speedup tables depend on the base cell: the victim's whole Fig5
	// row must be ERR, while other rows keep their numbers.
	fig5 := Fig5(m)
	for _, row := range fig5.Rows {
		if row[0] != victim {
			continue
		}
		for _, cell := range row[1:] {
			if cell != "ERR" {
				t.Errorf("Fig5 %s cell = %q, want ERR (base failed)", victim, cell)
			}
		}
	}
}

// TestSessionStoreResume interrupts nothing but splits the suite
// across two sessions sharing a result store: the second session must
// serve every cell from the store and render byte-identical tables.
func TestSessionStoreResume(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Workers = 4

	render := func(st *results.Store) (string, *Session) {
		s := NewSession(context.Background(), cfg, runner.Options{Retries: 1, Store: st})
		m := s.Matrix()
		var b strings.Builder
		b.WriteString(Table2(m).String())
		b.WriteString(Fig5(m).String())
		b.WriteString(Fig9(m).String())
		b.WriteString(s.Fig4().String())
		return b.String(), s
	}

	first, s1 := render(results.New(dir))
	if len(s1.Failures()) != 0 {
		t.Fatalf("first session failed: %s", s1.FailureReport())
	}
	if s1.Cached() != 0 || s1.Ran() == 0 {
		t.Fatalf("first session cached=%d ran=%d, want 0/>0", s1.Cached(), s1.Ran())
	}

	second, s2 := render(results.New(dir))
	if s2.Ran() != 0 {
		t.Errorf("resumed session re-simulated %d cell(s), want 0", s2.Ran())
	}
	if s2.Cached() == 0 {
		t.Error("resumed session served nothing from the store")
	}
	if first != second {
		t.Error("resumed tables differ byte-for-byte from the original run")
	}
}

// TestSessionSimulatesEachCellOnce: Figure 10's default geometry and
// Figure 11's NoDis columns ask for cells the matrix already holds. A
// session that builds all three simulates each distinct fingerprint
// once, and renders the tables a session per table renders.
func TestSessionSimulatesEachCellOnce(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 2
	asked, distinct := 0, make(map[string]bool)
	count := func(jobs []runner.Job) []runner.CellResult {
		for _, j := range jobs {
			asked++
			distinct[j.Fingerprint()] = true
		}
		return make([]runner.CellResult, len(jobs))
	}
	runMatrixWith(cfg, count)
	fig10With(cfg, count)
	fig11With(cfg, count)
	if asked == len(distinct) {
		t.Fatalf("the tables ask for %d cells, all distinct: nothing repeats", asked)
	}

	render := func(m *Matrix, fig10, fig11 *stats.Table) string {
		return Table2(m).String() + Fig5(m).String() + fig10.String() + fig11.String()
	}
	s := NewSession(context.Background(), cfg, runner.DefaultOptions())
	got := render(s.Matrix(), s.Fig10(), s.Fig11())
	if len(s.Failures()) != 0 {
		t.Fatal(s.FailureReport())
	}
	if s.Ran() != len(distinct) || s.Cached() != 0 {
		t.Errorf("session simulated %d cell(s) and served %d from a store, want the %d distinct of %d asked and 0",
			s.Ran(), s.Cached(), len(distinct), asked)
	}
	if want := render(RunMatrix(cfg), Fig10(cfg), Fig11(cfg)); got != want {
		t.Errorf("tables from one session differ from a session per table:\n%s\nwant:\n%s", got, want)
	}
}

// TestSessionCanceledRendersPartial: a canceled session still returns
// tables, with every cell marked ERR and the cancellation recorded.
func TestSessionCanceledRendersPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(ctx, tinyConfig(), runner.DefaultOptions())
	m := s.Matrix()
	out := Table2(m).String()
	if !strings.Contains(out, "ERR") {
		t.Errorf("canceled matrix table has no ERR cells:\n%s", out)
	}
	if len(s.Failures()) == 0 {
		t.Fatal("canceled session recorded no failures")
	}
	if report := s.FailureReport(); !strings.Contains(report, "context canceled") {
		t.Errorf("failure report does not mention cancellation:\n%s", report)
	}
}
