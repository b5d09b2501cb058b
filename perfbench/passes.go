package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// opRec is one timed cell of a pass. Ns is the CPU time (user plus
// system, all threads) the pass process spent on the cell: on a shared
// host it leaves out time the hypervisor stole and time other tenants
// held the CPU, which wall time (WallNs) includes.
type opRec struct {
	Cell   string `json:"cell"`
	Ns     int64  `json:"ns"`
	WallNs int64  `json:"wall_ns"`
	Insts  uint64 `json:"insts"`
	Err    string `json:"err,omitempty"`
}

// passOut is what a pass process reports to the orchestrator.
type passOut struct {
	Origin     int64              `json:"origin_unix_ns"`
	SetupNs    int64              `json:"setup_ns"` // CPU time, as opRec.Ns
	SetupWall  int64              `json:"setup_wall_ns"`
	Ops        []opRec            `json:"ops"`
	Checks     int                `json:"checks"`
	CheckFails []string           `json:"check_fails,omitempty"`
	IPCErrPct  float64            `json:"ipc_err_pct,omitempty"`
	WorstCell  string             `json:"worst_cell,omitempty"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

func (p *passOut) cellNs() float64 {
	t := 0.0
	for _, op := range p.Ops {
		t += float64(op.Ns)
	}
	return t
}

// passSpec fixes what one workload's pass runs.
type passSpec struct {
	cfg   sim.Config
	cells []cell
	want  func(*refs) map[string]string
	// tailQ is the op_tail_ms percentile and minPasses the pass count
	// every run makes at least, chosen together so the tail rule holds.
	tailQ     float64
	minPasses int
}

func specFor(name string) (passSpec, bool) {
	switch name {
	case "matrix":
		return passSpec{cfg: matrixConfig(), cells: matrixCells(),
			want: func(r *refs) map[string]string { return r.Matrix }, tailQ: 0.9, minPasses: 3}, true
	case "sampled-long":
		return passSpec{cfg: sampledConfig(), cells: sampledCells(),
			want: func(r *refs) map[string]string { return r.SampledLong }, tailQ: 0.81, minPasses: 3}, true
	}
	return passSpec{}, false
}

// shuffle orders a pass's workloads from the run seed and the pass
// index, so each pass visits the same cells in its own order. Each
// workload keeps its schemes together and in order: a sampled cell's
// bytes account for the checkpoints it generated or reused, so the
// first scheme of a workload must stay first for its bytes to match
// the reference.
func shuffle(cells []cell, seed int64, index int) []cell {
	rng := rand.New(rand.NewSource(seed*7919 + int64(index)))
	var groups [][]cell
	for i, c := range cells {
		if i == 0 || c.w.Name != cells[i-1].w.Name {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], c)
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var out []cell
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// runPass is the body of a pass process: it records the six streams
// (set-up), then simulates every cell of the workload once on one
// goroutine, checking each against its reference. A traced pass also
// measures the layers (see tracedCell and probeFunctional).
func runPass(root, name string, seed int64, index int, traced, render bool) (*passOut, error) {
	origin := time.Now()
	spec, ok := specFor(name)
	if !ok {
		return nil, fmt.Errorf("no passes for workload %q", name)
	}
	ref, err := loadRefs(filepath.Join(root, "perfbench", refsFile))
	if err != nil {
		return nil, err
	}
	want := spec.want(ref)
	cfg := spec.cfg
	out := &passOut{Origin: origin.UnixNano()}
	var rec *recorder
	var lay *layerSums
	if traced {
		rec = newRecorder(origin)
		lay = newLayerSums()
	}
	ctx := context.Background()

	tr0 := trace.Shared().Stats()
	for _, w := range workload.All() {
		c0 := cpuTime()
		s := time.Now()
		if err := sim.WarmTrace(w, cfg); err != nil {
			return nil, err
		}
		e := time.Now()
		out.SetupNs += cpuTime() - c0
		out.SetupWall += e.Sub(s).Nanoseconds()
		rec.add("sim.WarmTrace", 0, 0, s, e)
	}
	tr1 := trace.Shared().Stats()

	results := make(map[string]sim.Result, len(spec.cells))
	seen := make(map[string]bool) // workloads whose checkpoints exist
	for i, c := range shuffle(spec.cells, seed, index) {
		var ms0, ms1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		c0 := cpuTime()
		s := time.Now()
		r, err := sim.RunChecked(ctx, c.w, c.v, cfg)
		e := time.Now()
		c1 := cpuTime()
		if traced {
			runtime.ReadMemStats(&ms1)
		}
		op := opRec{Cell: c.key(), Ns: c1 - c0, WallNs: e.Sub(s).Nanoseconds(), Insts: r.CPU.Committed}
		if cfg.SampleMode != sim.SampleOff && r.Sampled != nil {
			op.Insts = r.Sampled.TotalInsts
		}
		if err == nil {
			err = checkDigest(want, c.key(), serve.EncodeResult(r))
		}
		if err == nil && cfg.SampleMode != sim.SampleOff {
			err = out.noteIPCErr(ref, c, r)
		}
		if err != nil {
			op.Err = err.Error()
		}
		out.Ops = append(out.Ops, op)
		results[c.key()] = r
		if traced {
			rec.add("sim.RunChecked", 0, i+1, s, e)
			lay.allocs(ms0, ms1)
			if cfg.SampleMode == sim.SampleOff {
				if err := lay.tracedCell(rec, i+1, c, cfg, r, op.WallNs); err != nil && op.Err == "" {
					out.Ops[len(out.Ops)-1].Err = err.Error()
				}
			} else {
				lay.sampledCell(r, op.WallNs, !seen[c.w.Name])
			}
		}
		seen[c.w.Name] = true
	}
	if render {
		out.renderCheck(root, cfg, results)
	}
	if traced {
		if cfg.SampleMode != sim.SampleOff {
			if err := lay.probeFunctional(rec, cfg); err != nil {
				return nil, err
			}
		}
		out.Layer = lay.finish(out, tr0, tr1, trace.Shared().Stats())
		out.Spans = rec.all()
	}
	return out, nil
}

// noteIPCErr folds one sampled cell's relative IPC error against the
// committed exact IPC into the pass's worst error.
func (p *passOut) noteIPCErr(ref *refs, c cell, r sim.Result) error {
	exact, ok := ref.ExactIPC2M[c.key()]
	if !ok || exact == 0 || r.Sampled == nil {
		return fmt.Errorf("%s: no exact IPC reference or no estimate", c.key())
	}
	rel := 100 * math.Abs(r.Sampled.IPC-exact) / exact
	if rel > p.IPCErrPct {
		p.IPCErrPct, p.WorstCell = rel, fmt.Sprintf("%s %.4f sampled vs %.4f exact", c.key(), r.Sampled.IPC, exact)
	}
	return nil
}

// renderCheck renders Table 2 and Figures 5-9 from the pass's cells and
// requires each to appear verbatim, as psbtables prints it, in the
// committed artifacts_full.txt.
func (p *passOut) renderCheck(root string, cfg sim.Config, results map[string]sim.Result) {
	golden, err := os.ReadFile(filepath.Join(root, "artifacts_full.txt"))
	if err != nil {
		p.Checks++
		p.CheckFails = append(p.CheckFails, err.Error())
		return
	}
	m := &experiments.Matrix{Cfg: cfg, Results: map[string]map[core.Variant]sim.Result{}}
	for _, c := range matrixCells() {
		r, ok := results[c.key()]
		if !ok {
			continue
		}
		if m.Results[c.w.Name] == nil {
			m.Results[c.w.Name] = map[core.Variant]sim.Result{}
		}
		m.Results[c.w.Name][c.v] = r
	}
	for _, t := range []*stats.Table{experiments.Table2(m), experiments.Fig5(m), experiments.Fig6(m),
		experiments.Fig7(m), experiments.Fig8(m), experiments.Fig9(m)} {
		p.Checks++
		if !bytes.Contains(golden, []byte(t.String()+"\n")) {
			p.CheckFails = append(p.CheckFails, fmt.Sprintf("%q differs from artifacts_full.txt", t.Title))
		}
	}
}

// layerSums accumulates a traced run's per-layer counts and times.
type layerSums struct {
	inner, loop float64 // timer-pair cost, ns per wrapped call

	insts, cycles, skipped      float64
	l1dMiss, l2Miss, l1l2Busy   float64
	used, issued                float64
	untracedNs, tracedNs        float64 // wall time of the wrapped cells
	sbufNs, calls, wrappedInsts float64
	ops, mallocs, allocBytes    float64
	gcStart                     runtime.MemStats
	functionalInsts, detailed   float64
	genNs, reuseNs              []float64
	probeNs, probeInsts         float64
}

func newLayerSums() *layerSums {
	l := &layerSums{}
	l.inner, l.loop = timerCost()
	runtime.ReadMemStats(&l.gcStart)
	return l
}

// allocs folds one op's heap allocation delta.
func (l *layerSums) allocs(a, b runtime.MemStats) {
	l.ops++
	l.mallocs += float64(b.Mallocs - a.Mallocs)
	l.allocBytes += float64(b.TotalAlloc - a.TotalAlloc)
}

// counts folds a result's simulated-machine counters.
func (l *layerSums) counts(r sim.Result) {
	l.insts += float64(r.CPU.Committed)
	l.cycles += float64(r.CPU.Cycles)
	l.skipped += float64(r.CPU.SkippedCycles)
	l.l1dMiss += float64(r.L1D.Misses)
	l.l2Miss += float64(r.L2.Misses)
	l.l1l2Busy += r.L1L2Util * float64(r.CPU.Cycles)
	l.used += float64(r.SB.PrefetchesUsed)
	l.issued += float64(r.SB.PrefetchesIssued)
}

// wrapped folds one exact cell timed both plainly and through the
// timed prefetcher.
func (l *layerSums) wrapped(r sim.Result, untracedNs, tracedNs int64, tp *timedPrefetcher) {
	l.counts(r)
	l.untracedNs += float64(untracedNs)
	l.tracedNs += float64(tracedNs)
	l.sbufNs += float64(tp.ns)
	l.calls += float64(tp.calls)
	l.wrappedInsts += float64(r.CPU.Committed)
}

// coreMetrics adds the cpu, mem, sbuf, sim and go metrics. The
// prefetcher's time is its timed total less one timer read per call;
// the rest of the cell is the untraced cell time less that, so the
// wrapper's own cost lands in neither layer (trace_overhead_pct shows
// it).
func (l *layerSums) coreMetrics(m map[string]float64) {
	var gc runtime.MemStats
	runtime.ReadMemStats(&gc)
	m["cpu.skip_frac"] = ratio(l.skipped, l.cycles)
	m["cpu.cycles"] = l.cycles
	m["mem.l1d_mpki"] = 1000 * ratio(l.l1dMiss, l.insts)
	m["mem.l2_mpki"] = 1000 * ratio(l.l2Miss, l.insts)
	m["mem.l1l2_util"] = ratio(l.l1l2Busy, l.cycles)
	m["sbuf.accuracy"] = ratio(l.used, l.issued)
	m["sim.allocs_per_cell"] = ratio(l.mallocs, l.ops)
	m["sim.alloc_mb_per_cell"] = ratio(l.allocBytes, l.ops) / (1 << 20)
	m["go.gc_cycles"] = float64(gc.NumGC - l.gcStart.NumGC)
	m["go.gc_pause_ms"] = float64(gc.PauseTotalNs-l.gcStart.PauseTotalNs) / 1e6
	if l.calls > 0 {
		sbuf := l.sbufNs - l.calls*l.inner
		m["cpu.ns_per_inst"] = ratio(l.untracedNs-sbuf, l.wrappedInsts)
		m["sbuf.ns_per_inst"] = ratio(sbuf, l.wrappedInsts)
		m["sbuf.share"] = ratio(sbuf, l.untracedNs)
		m["sbuf.calls_per_kinst"] = 1000 * ratio(l.calls, l.wrappedInsts)
		m["trace_overhead_pct"] = 100 * ratio(l.tracedNs-l.untracedNs, l.untracedNs)
	}
}

// tracedCell re-simulates an exact cell with the timed prefetcher and
// requires the result to equal the untraced one.
func (l *layerSums) tracedCell(rec *recorder, op int, c cell, cfg sim.Config, untraced sim.Result, untracedNs int64) error {
	s := time.Now()
	r, tp := runWrapped(c.w, c.v, cfg)
	e := time.Now()
	id := rec.add("sim.RunWithPrefetcher", 0, op, s, e)
	rec.addDur("sbuf.Prefetcher", id, op, s, tp.ns)
	l.wrapped(r, untracedNs, e.Sub(s).Nanoseconds(), tp)
	if !reflect.DeepEqual(r, untraced) {
		return fmt.Errorf("%s: wrapped-prefetcher result differs from sim.RunChecked", c.key())
	}
	return nil
}

func (l *layerSums) sampledCell(r sim.Result, ns int64, gen bool) {
	l.counts(r)
	if est := r.Sampled; est != nil {
		l.functionalInsts += float64(est.FunctionalInsts)
		l.detailed += float64(est.MeasuredInsts + est.WarmupInsts + est.CertaintyInsts)
	}
	if gen {
		l.genNs = append(l.genNs, float64(ns))
	} else {
		l.reuseNs = append(l.reuseNs, float64(ns))
	}
}

// probeFunctional times a standalone functional executor over each
// recorded stream for the sampled budget.
func (l *layerSums) probeFunctional(rec *recorder, cfg sim.Config) error {
	for _, w := range workload.All() {
		w := w
		rep, err := trace.Shared().Source(sim.TraceKey(w, cfg), sim.TraceNeed(cfg), "",
			func() *vm.Machine { return w.Build(cfg.Seed) })
		if err != nil {
			return err
		}
		f := cpu.NewFunctional(cfg.Mem, cfg.CPU.Gshare, rep.Rest())
		s := time.Now()
		f.AdvanceTo(cfg.MaxInsts)
		e := time.Now()
		rec.add("cpu.Functional.AdvanceTo", 0, 0, s, e)
		l.probeNs += float64(e.Sub(s))
		l.probeInsts += float64(f.Executed())
	}
	return nil
}

// finish turns a pass's sums into its per-layer metrics. tr0 is the
// trace cache before set-up, tr1 after it; tr2 at the end of the pass.
func (l *layerSums) finish(p *passOut, tr0, tr1, tr2 trace.Stats) map[string]float64 {
	m := map[string]float64{
		"trace.recorded_insts":     float64(tr1.RecordedInsts - tr0.RecordedInsts),
		"trace.record_ns_per_inst": ratio(float64(p.SetupWall), float64(tr1.RecordedInsts-tr0.RecordedInsts)),
		"trace.hits":               float64(tr2.Hits - tr0.Hits),
		"trace.misses":             float64(tr2.Misses - tr0.Misses),
		"sample.ipc_err_pct":       p.IPCErrPct,
	}
	l.coreMetrics(m)
	if l.probeInsts > 0 {
		ss := sample.Shared().Stats() // the pass process started with an empty store
		m["sample.functional_ns_per_inst"] = ratio(l.probeNs, l.probeInsts)
		m["sample.functional_insts"] = l.functionalInsts
		m["sample.detailed_insts"] = l.detailed
		m["sample.ckpt_hits"] = float64(ss.Hits)
		m["sample.ckpt_misses"] = float64(ss.Misses)
		m["sample.gen_cell_ms"] = median(l.genNs) / 1e6
		m["sample.reuse_cell_ms"] = median(l.reuseNs) / 1e6
	}
	return m
}

// passRun is one finished pass process.
type passRun struct {
	out    *passOut
	traced bool
	rssMB  float64
}

// runPasses is the orchestrator side of matrix and sampled-long: it
// starts pass processes one at a time until the measuring window would
// be exceeded (after at least spec.minPasses). A traced run alternates
// untraced and traced sampled-long passes, so the overhead compares
// like with like; a traced matrix pass measures both itself.
func runPasses(bin string, a args, rec *recorder) ([]passRun, error) {
	spec, _ := specFor(a.workload)
	var runs []passRun
	start := time.Now()
	var durs []float64
	minPasses := spec.minPasses
	if a.trace {
		// Traced runs report per-layer metrics only; no tail to protect.
		minPasses = 1
		if a.workload == "sampled-long" {
			minPasses = 2 // one untraced, one traced
		}
	}
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start).Seconds()+median(durs) > float64(a.seconds) {
			break
		}
		traced := a.trace && (a.workload == "matrix" || i%2 == 1)
		s := time.Now()
		out, rss, err := spawnPass(bin, a, i, traced)
		if err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(s).Seconds())
		runs = append(runs, passRun{out: out, traced: traced, rssMB: rss})
		if rec != nil {
			rec.merge(out.Spans, time.Unix(0, out.Origin).Sub(rec.origin))
		}
	}
	return runs, nil
}

// spawnPass runs one pass in a fresh process: trace.Shared and
// sample.Shared are process-wide and cannot be reset, so a pass that
// must start cold needs a process of its own. It returns the pass's
// report and the process's peak RSS in MiB.
func spawnPass(bin string, a args, index int, traced bool) (*passOut, float64, error) {
	cmd := exec.Command(bin, "-mode", "pass", "-root", a.root, "-out", a.out,
		"-workload", a.workload, "-seed", strconv.FormatInt(a.seed, 10),
		"-index", strconv.Itoa(index), "-trace", b2s(traced))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("pass %d: %w", index, err)
	}
	var out passOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, 0, fmt.Errorf("pass %d: decoding report: %w", index, err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return &out, rss, nil
}

func b2s(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// passMetrics reduces the passes of a matrix or sampled-long run to
// the run's metrics, op counts and report lines.
func passMetrics(a args, runs []passRun) *outcome {
	spec, _ := specFor(a.workload)
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var setup, mips, rss, lat, cellNs, tracedCellNs []float64
	layers := map[string][]float64{}
	for _, pr := range runs {
		p := pr.out
		setup = append(setup, float64(p.SetupNs)/1e9)
		rss = append(rss, pr.rssMB)
		insts := 0.0
		for _, op := range p.Ops {
			o.attempted++
			if op.Err != "" {
				o.failed++
				o.fail(op.Err)
			}
			lat = append(lat, float64(op.Ns)/1e6)
			insts += float64(op.Insts)
		}
		o.attempted += p.Checks
		o.failed += len(p.CheckFails)
		for _, f := range p.CheckFails {
			o.fail(f)
		}
		mips = append(mips, 1e3*ratio(insts, p.cellNs()))
		if p.IPCErrPct > 0 && len(o.notes) == 0 {
			o.note("ipc_err_pct %.2f%% (worst cell %s)", p.IPCErrPct, p.WorstCell)
		}
		if pr.traced {
			tracedCellNs = append(tracedCellNs, p.cellNs())
			for k, v := range p.Layer {
				layers[k] = append(layers[k], v)
			}
		} else {
			cellNs = append(cellNs, p.cellNs())
		}
	}
	o.e2e["setup_s"] = median(setup)
	o.e2e["minst_per_s"] = median(mips)
	o.e2e["op_p50_ms"] = median(lat)
	if !a.trace {
		t, err := tail(lat, spec.tailQ)
		if err != nil {
			o.failed++
			o.fail("op_tail_ms: " + err.Error())
		}
		o.e2e["op_tail_ms"] = t
	}
	o.e2e["peak_rss_mb"] = median(rss)
	for k, v := range layers {
		o.layer[k] = median(v)
	}
	if a.workload == "sampled-long" && len(cellNs) > 0 && len(tracedCellNs) > 0 {
		o.layer["trace_overhead_pct"] = 100 * (median(tracedCellNs)/median(cellNs) - 1)
	}
	o.note("%d passes, %d ops", len(runs), len(lat))
	if !a.trace {
		o.note("op_tail_ms is p%g over %d ops", spec.tailQ*100, len(lat))
	}
	return o
}

// passSummary is a one-line description of a pass for the report.
func passSummary(i int, pr passRun) string {
	p := pr.out
	var fails []string
	for _, op := range p.Ops {
		if op.Err != "" {
			fails = append(fails, op.Cell)
		}
	}
	wall := 0.0
	for _, op := range p.Ops {
		wall += float64(op.WallNs)
	}
	return fmt.Sprintf("pass %d: set-up %.3fs cpu (%.3fs wall), cells %.3fs cpu (%.3fs wall), rss %.0fMiB, traced=%v, failed=[%s]",
		i, float64(p.SetupNs)/1e9, float64(p.SetupWall)/1e9, p.cellNs()/1e9, wall/1e9, pr.rssMB, pr.traced, strings.Join(fails, " "))
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}
