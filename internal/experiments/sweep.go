package experiments

import (
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Studies renders the ablation and extension tables under one
// configuration. Their rows are edited core.Schemes, which no job
// fingerprint names, so they bypass the checked runner of a Session.
type Studies struct {
	cfg sim.Config
	run sweeper
}

// NewStudies returns the studies of cfg, simulating their cells.
func NewStudies(cfg sim.Config) Studies { return Studies{cfg, simulate(cfg)} }

// A setting is one row (or, in the prior-work, shootout and unrolling
// tables, one column) of a study: its label and resolved scheme.
type setting struct {
	name   string
	scheme core.Scheme
}

// psb is the setting that edits ConfAlloc-Priority as s.cfg resolves it.
func (s Studies) psb(name string, edit func(*core.Scheme)) setting {
	sc := s.cfg.Scheme(core.PSBConfPriority)
	edit(&sc)
	return setting{name, sc}
}

// A sweeper runs each workload's base machine, then every setting on
// every workload. A test substitutes one that reads the settings.
type sweeper func(ws []workload.Workload, settings []setting) sweep

// sweep holds a table's results in that order.
type sweep struct {
	res []sim.Result
	n   int // workloads
}

// simulate runs one sim.RunWithPrefetcher per cell on cfg.Workers
// workers. Workloads vary fastest, so the first cells to run record
// different instruction streams.
func simulate(cfg sim.Config) sweeper {
	return func(ws []workload.Workload, settings []setting) sweep {
		schemes := []core.Scheme{cfg.Scheme(core.None)}
		for _, s := range settings {
			schemes = append(schemes, s.scheme)
		}
		r := sweep{make([]sim.Result, len(schemes)*len(ws)), len(ws)}
		runner.ForWorkers(cfg.Workers).Map(len(r.res), func(k int) {
			r.res[k] = sim.RunWithPrefetcher(ws[k%r.n], cfg, schemes[k/r.n].Build)
		})
		return r
	}
}

// at is setting i's result on workload j.
func (s sweep) at(i, j int) sim.Result { return s.res[(i+1)*s.n+j] }

// speedup renders setting i's percent speedup over base on workload j.
func (s sweep) speedup(i, j int) string { return stats.SignedPct(s.at(i, j).SpeedupOver(s.res[j])) }

// speedups renders setting i's speedup on each workload.
func (s sweep) speedups(i int) []string {
	out := make([]string, s.n)
	for j := range out {
		out[j] = s.speedup(i, j)
	}
	return out
}

// rows runs settings on ws and adds each to t: name, then cells(r, i).
func (s Studies) rows(t *stats.Table, ws []workload.Workload, settings []setting, cells func(r sweep, i int) []string) {
	r := s.run(ws, settings)
	for i, st := range settings {
		t.AddRow(append([]string{st.name}, cells(r, i)...)...)
	}
}

// columns runs settings on ws: a row per workload, a column per setting.
func (s Studies) columns(title, first string, ws []workload.Workload, settings []setting) *stats.Table {
	headers := []string{first}
	for _, st := range settings {
		headers = append(headers, st.name)
	}
	t := stats.NewTable(title, headers...)
	r := s.run(ws, settings)
	for j, w := range ws {
		row := []string{w.Name}
		for i := range settings {
			row = append(row, r.speedup(i, j))
		}
		t.AddRow(row...)
	}
	return t
}

// workloads looks benchmarks up by name.
func workloads(names ...string) []workload.Workload {
	ws := make([]workload.Workload, len(names))
	for i, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		ws[i] = w
	}
	return ws
}
