// Command perfbench is the repository benchmark. It times the
// simulator and the serving stack on three workloads, checks every
// result against committed references, and prints one JSON summary as
// its last line of output:
//
//	bash perfbench/run.sh --workload matrix --seed 1 --seconds 25 --trace 0
//
// Workloads: matrix (the Figure 5-9 cells at psbtables' defaults),
// sampled-long (sampled 2M-instruction cells) and cluster-mix (open-loop
// traffic against three in-process psbserved nodes). With --trace 0 the
// summary holds the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics of a separate traced run. METRICS.md defines every
// metric. Each run also writes a full report, and with --trace 1 its
// spans, under the output directory.
//
// Other modes, used by the benchmark itself or by a maintainer:
//
//	-mode pass          one matrix or sampled-long pass (started by the run)
//	-mode setup-probe   one cold cluster-mix set-up (started by the run)
//	-mode refs          regenerate perfbench/refs.json from the current code
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// args are the command-line settings of every mode.
type args struct {
	root, out, mode, workload string
	seed                      int64
	seconds, index            int
	trace                     bool
}

// metricDef names a reported metric and its unit. The end-to-end and
// per-layer lists are the summary's keys; BENCHMARK.json declares the
// same names (checked by TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"cpu.ns_per_inst", "ns"},
	{"cpu.skip_frac", "ratio"},
	{"cpu.cycles", "count"},
	{"mem.l1d_mpki", "1/kinst"},
	{"mem.l2_mpki", "1/kinst"},
	{"mem.l1l2_util", "ratio"},
	{"sbuf.ns_per_inst", "ns"},
	{"sbuf.share", "ratio"},
	{"sbuf.calls_per_kinst", "1/kinst"},
	{"sbuf.accuracy", "ratio"},
	{"trace.record_ns_per_inst", "ns"},
	{"trace.recorded_insts", "count"},
	{"trace.hits", "count"},
	{"trace.misses", "count"},
	{"sample.functional_ns_per_inst", "ns"},
	{"sample.functional_insts", "count"},
	{"sample.detailed_insts", "count"},
	{"sample.ckpt_hits", "count"},
	{"sample.ckpt_misses", "count"},
	{"sample.gen_cell_ms", "ms"},
	{"sample.reuse_cell_ms", "ms"},
	{"sample.ipc_err_pct", "%"},
	{"sim.allocs_per_cell", "count"},
	{"sim.alloc_mb_per_cell", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"serve.mem_ms", "ms"},
	{"serve.sim_ms", "ms"},
	{"serve.dedup_ms", "ms"},
	{"serve.server_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.hit_rate", "ratio"},
	{"serve.sims_per_cold_cell", "ratio"},
	{"runner.wait_ms", "ms"},
	{"runner.inflight_max", "count"},
	{"cluster.peer_ms", "ms"},
	{"cluster.peer_rpcs_per_batch", "ratio"},
	{"cluster.coalesced_fills", "count"},
	{"cluster.warm_push_sent", "count"},
	{"cluster.warm_push_dropped", "count"},
	{"gen.late_p99_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

var workloads = []string{"matrix", "sampled-long", "cluster-mix"}

// outcome is one workload run's reduced result.
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	fails, notes      []string
}

func (o *outcome) fail(msg string) {
	if len(o.fails) < 20 {
		o.fails = append(o.fails, msg)
	}
}

func (o *outcome) note(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var a args
	flag.StringVar(&a.root, "root", ".", "root of the repository checkout")
	flag.StringVar(&a.out, "out", ".bench_build", "directory for reports, spans and build outputs")
	flag.StringVar(&a.mode, "mode", "run", "run, pass, setup-probe or refs")
	flag.StringVar(&a.workload, "workload", "", "matrix, sampled-long, cluster-mix or all")
	flag.Int64Var(&a.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&a.seconds, "seconds", 25, "length of the measuring window")
	flag.IntVar(&a.index, "index", 0, "pass index (pass mode)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	a.trace = *traceFlag != 0
	if err := dispatch(a); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func dispatch(a args) error {
	switch a.mode {
	case "run":
		return run(a)
	case "pass":
		out, err := runPass(a.root, a.workload, a.seed, a.index, a.trace, a.workload == "matrix" && a.index == 0)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	case "setup-probe":
		d, err := probeClusterSetup()
		if err != nil {
			return err
		}
		fmt.Println(d.Nanoseconds())
		return nil
	case "refs":
		return makeRefs(filepath.Join(a.root, "perfbench", refsFile))
	}
	return fmt.Errorf("unknown mode %q", a.mode)
}

// run measures one workload, or with "all" each in turn, printing the
// report and then the summary line. The summary of "all" adds up the
// ops and keys each metric "<workload>/<metric>".
func run(a args) error {
	if a.workload != "all" {
		s, err := runOne(a)
		if err != nil {
			return err
		}
		return printJSON(s)
	}
	all := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		a.workload = w
		s, err := runOne(a)
		if err != nil {
			return err
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[w+"/"+k] = v
		}
	}
	return printJSON(all)
}

func printJSON(s summary) error {
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne measures one workload, prints its report and writes it to the
// output directory.
func runOne(a args) (summary, error) {
	known := false
	for _, w := range workloads {
		known = known || w == a.workload
	}
	if !known {
		return summary{}, fmt.Errorf("unknown workload %q (want one of %v or all)", a.workload, workloads)
	}
	if a.seconds < 1 {
		return summary{}, fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := loadRefs(filepath.Join(a.root, "perfbench", refsFile)); err != nil {
		return summary{}, err
	}
	bin, err := os.Executable()
	if err != nil {
		return summary{}, err
	}
	m := startMachine(a.root)
	rec := (*recorder)(nil)
	if a.trace {
		rec = newRecorder(time.Now())
	}
	var o *outcome
	var passes []passRun
	if a.workload == "cluster-mix" {
		o, err = runClusterMix(bin, a, rec)
	} else {
		passes, err = runPasses(bin, a, rec)
		if err == nil {
			o = passMetrics(a, passes)
		}
	}
	if err != nil {
		return summary{}, err
	}
	m.finish()
	if a.trace {
		// The outside-in breakdown: time inside each module call the
		// benchmark made, less the time its child spans cover.
		self := selfTimes(rec.all())
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			o.note("self time %-26s %12.3f ms", n, float64(self[n])/1e6)
		}
	}

	defs, vals := endToEnd, o.e2e
	if a.trace {
		defs, vals = perLayer, o.layer
	}
	s := summary{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}

	mb, _ := json.Marshal(m)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", a.workload, a.seed, a.seconds, a.trace)
	fmt.Printf("machine %s\n", mb)
	for i, pr := range passes {
		fmt.Println(passSummary(i, pr))
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, f := range o.fails {
		fmt.Println("FAILED", f)
	}
	names := make([]string, 0, len(s.Metrics))
	for k := range s.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-30s %14.6g %s\n", k, s.Metrics[k].Value, s.Metrics[k].Unit)
	}
	fmt.Printf("ops attempted %d failed %d\n", o.attempted, o.failed)

	return s, writeReport(a, m, s, o, rec)
}

// writeReport saves the run's full record (machine, summary, notes,
// failures) and, for a traced run, its spans.
func writeReport(a args, m *machine, s summary, o *outcome, rec *recorder) error {
	dir := filepath.Join(a.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%s", a.workload, a.seed, b2s(a.trace))
	report := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  int      `json:"seconds"`
		Machine  *machine `json:"machine"`
		Summary  summary  `json:"summary"`
		Notes    []string `json:"notes,omitempty"`
		Failures []string `json:"failures,omitempty"`
	}{a.workload, a.seed, a.seconds, m, s, o.notes, o.fails}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	return writeSpans(filepath.Join(dir, base+".spans.jsonl"), rec.all())
}
