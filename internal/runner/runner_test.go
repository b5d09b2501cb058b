package runner

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 100
		var hits [n]atomic.Int32
		New(workers).Map(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	New(4).Map(0, func(i int) { t.Fatal("called for n=0") })
	calls := 0
	New(4).Map(1, func(i int) { calls++ })
	if calls != 1 {
		t.Fatalf("n=1 ran %d calls, want 1", calls)
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", pe)
		}
		if pe.Value != "boom" {
			t.Errorf("panic value = %v, want boom", pe.Value)
		}
		// The stack must be the worker's, captured at recover time:
		// it names the panicking closure in this file, which the
		// caller-side re-raise alone would have lost.
		if !strings.Contains(string(pe.Stack), "runner_test.go") {
			t.Errorf("panic stack does not reach the failing call:\n%s", pe.Stack)
		}
	}()
	New(4).Map(16, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
	t.Fatal("Map returned instead of panicking")
}

func TestForWorkers(t *testing.T) {
	if got := ForWorkers(0).Workers(); got != 1 {
		t.Errorf("ForWorkers(0) = %d workers, want 1 (serial)", got)
	}
	if got := ForWorkers(3).Workers(); got != 3 {
		t.Errorf("ForWorkers(3) = %d workers, want 3", got)
	}
	if got := ForWorkers(-1).Workers(); got < 1 {
		t.Errorf("ForWorkers(-1) = %d workers, want >= 1", got)
	}
}

// TestRunResultsKeyedByJob checks that results line up with their jobs
// when jobs differ (different workloads and variants) and workers race.
func TestRunResultsKeyedByJob(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 5_000
	var jobs []Job
	for _, w := range workload.All()[:3] {
		for _, v := range []core.Variant{core.None, core.PSBConfPriority} {
			jobs = append(jobs, Job{Workload: w, Variant: v, Config: cfg})
		}
	}
	serial, err := New(1).RunChecked(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(8).RunChecked(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !serial[i].OK() || !parallel[i].OK() {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		got := serial[i].Result
		if got.Workload != jobs[i].Workload.Name || got.Variant != jobs[i].Variant {
			t.Fatalf("job %d: result tagged %s/%s, want %s/%s",
				i, got.Workload, got.Variant, jobs[i].Workload.Name, jobs[i].Variant)
		}
		if !reflect.DeepEqual(got, parallel[i].Result) {
			t.Fatalf("job %d (%s/%s): parallel result differs from serial",
				i, jobs[i].Workload.Name, jobs[i].Variant)
		}
	}
}
