package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The wrapper must keep the cpu event loop's batched-tick fast path.
var _ rangeTicker = (*timedPrefetcher)(nil)

// minOpsFor is the smallest op count whose q-quantile the tail rule
// accepts.
func minOpsFor(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

func TestTailRefusesFewerThanTenBeyond(t *testing.T) {
	vals := make([]float64, 99)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if _, err := tail(vals, 0.9); err == nil {
		t.Fatal("p90 over 99 ops leaves 9 beyond it; want refusal")
	}
	vals = append(vals, 100)
	got, err := tail(vals, 0.9)
	if err != nil {
		t.Fatalf("p90 over 100 ops leaves 10 beyond it: %v", err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	for _, q := range []float64{0.8, 0.9, 0.99} {
		n := minOpsFor(q)
		if _, err := tail(make([]float64, n), q); err != nil {
			t.Errorf("minOpsFor(%v) = %d but tail refuses it: %v", q, n, err)
		}
		if _, err := tail(make([]float64, n-1), q); err == nil {
			t.Errorf("minOpsFor(%v) = %d is not the smallest accepted count", q, n)
		}
	}
}

func TestPassCountsSatisfyTailRule(t *testing.T) {
	for _, w := range []string{"matrix", "sampled-long"} {
		spec, _ := specFor(w)
		if got, need := spec.minPasses*len(spec.cells), minOpsFor(spec.tailQ); got < need {
			t.Errorf("%s: %d passes x %d cells = %d ops, p%g needs %d",
				w, spec.minPasses, len(spec.cells), got, spec.tailQ*100, need)
		}
	}
	if need := minOpsFor(clusterTailQ); float64(need) > clusterRate*10 {
		t.Errorf("cluster-mix p%g needs %d ops, more than 10 s of traffic offers", clusterTailQ*100, need)
	}
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	tab := newCellTable(7)
	a, na := makeSchedule(7, tab, 0, 5*time.Second, tab.hot)
	b, nb := makeSchedule(7, newCellTable(7), 0, 5*time.Second, tab.hot)
	if !reflect.DeepEqual(a, b) || na != nb {
		t.Fatal("same seed gave different schedules")
	}
	if !reflect.DeepEqual(tab.reqs, newCellTable(7).reqs) {
		t.Fatal("same seed gave different cell tables")
	}
	c, _ := makeSchedule(8, tab, 0, 5*time.Second, tab.hot)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != int(5*clusterRate) {
		t.Fatalf("%d requests in 5s at %v/s", len(a), clusterRate)
	}
	// Every block carries the same mix, whatever the seed.
	for _, sched := range [][]request{a, c} {
		var kinds [4]int
		for _, r := range sched[:blockLen] {
			kinds[r.Kind]++
		}
		if kinds != [4]int{blockLen - coldPerBlock - batchPerBlock - artPerBlock, coldPerBlock, batchPerBlock, artPerBlock} {
			t.Fatalf("first block mix hot/cold/batch/artifact = %v", kinds)
		}
	}
	// Each round of cold cells visits every matrix cell once.
	pairs := map[string]bool{}
	for _, r := range tab.reqs[tab.hot : 2*tab.hot] {
		pairs[r.Bench+"/"+r.Scheme] = true
	}
	if len(pairs) != tab.hot {
		t.Fatalf("first round of cold cells covers %d of %d workload x scheme pairs", len(pairs), tab.hot)
	}
	seen := map[int]bool{}
	for _, r := range a {
		for _, ci := range r.Cells {
			if tab.isHot(ci) {
				continue
			}
			if seen[ci] {
				t.Fatalf("cold cell %s scheduled twice", tab.key(ci))
			}
			seen[ci] = true
		}
	}
}

// A request that waits for a free connection is charged the wait: its
// latency counts from when it was due, not from when it was sent.
func TestLatencyCountsFromDueTime(t *testing.T) {
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= clusterConns {
			time.Sleep(100 * time.Millisecond)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	f := &fleet{}
	for i := 0; i < clusterNodes; i++ {
		f.nodes = append(f.nodes, &node{url: ts.URL})
	}
	tab := newCellTable(1)
	sched := make([]request, clusterConns+1)
	for i := range sched {
		sched[i] = request{Due: time.Duration(i) * time.Millisecond, Kind: kindHot, Cells: []int{0}}
	}
	c, tr := newClient()
	defer tr.CloseIdleConnections()
	res := generate(f, c, tab, sched, time.Now(), nil, 0)
	last := res[len(res)-1]
	if late := time.Duration(last.lateNs); late < 80*time.Millisecond {
		t.Fatalf("request due while both connections were busy was sent %v late; want about 100ms", late)
	}
	if time.Duration(last.latNs) < time.Duration(last.lateNs) {
		t.Fatalf("latency %v is shorter than the wait %v before sending", time.Duration(last.latNs), time.Duration(last.lateNs))
	}
}

func TestDigestCheckFailsOnOneByteChange(t *testing.T) {
	b := []byte(`{"Workload":"health"}` + "\n")
	want := map[string]string{"health/Base": digest(b)}
	if err := checkDigest(want, "health/Base", b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 1
		if checkDigest(want, "health/Base", c) == nil {
			t.Fatalf("flipping a bit of byte %d passed the check", i)
		}
	}
	if checkDigest(want, "health/PC-stride", b) == nil {
		t.Fatal("a cell without a reference passed the check")
	}
}

// The timed prefetcher must not change what is simulated.
func TestWrappedRunEqualsRunChecked(t *testing.T) {
	cfg := matrixConfig()
	cfg.MaxInsts = 20_000
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []core.Variant{core.None, core.PCStride, core.PSBConfPriority} {
		want, err := sim.RunChecked(context.Background(), w, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, tp := runWrapped(w, v, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped result differs from sim.RunChecked", v)
		}
		if tp.calls == 0 || tp.ns <= 0 {
			t.Errorf("%s: wrapper timed %d calls in %v", v, tp.calls, tp.ns)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sbuf", Start: 0, End: 30},
		{ID: 3, Name: "cell", Start: 200, End: 250},
	}
	got := selfTimes(spans)
	if got["cell"] != 120 || got["sbuf"] != 30 {
		t.Fatalf("self times %v, want cell 120 sbuf 30", got)
	}
}

// BENCHMARK.json declares exactly the metrics the summary reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloads[i])
		}
	}
}
