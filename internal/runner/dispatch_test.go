package runner

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestDispatcherSubmitWait submits a healthy job and a panicking job
// through a long-lived dispatcher and checks both outcomes match the
// batch path's semantics.
func TestDispatcherSubmitWait(t *testing.T) {
	d := NewDispatcher(2, 8)
	defer d.Close()
	cfg := smallCfg()
	w := workload.All()[0]

	good, err := d.Submit(context.Background(), Job{Workload: w, Variant: core.None, Config: cfg}, Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	bad, err := d.Submit(context.Background(), Job{Workload: boomWorkload(), Variant: core.None, Config: cfg}, Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	cell, err := good.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !cell.OK() {
		t.Fatalf("healthy cell failed: %v", cell.Err)
	}
	want := sim.Run(w, core.None, cfg)
	if !reflect.DeepEqual(cell.Result, want) {
		t.Errorf("dispatched result differs from plain Run")
	}

	badCell, err := bad.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var pe *PanicError
	if badCell.Err == nil || !errors.As(badCell.Err, &pe) {
		t.Fatalf("panicking cell err = %v, want *PanicError", badCell.Err)
	}
	if d.Finished() != 2 {
		t.Errorf("Finished = %d, want 2", d.Finished())
	}
	if d.Inflight() != 0 {
		t.Errorf("Inflight = %d, want 0", d.Inflight())
	}
}

// TestDispatcherQueueFull occupies the sole worker and the sole queue
// slot, then checks the overflow submit is rejected with ErrQueueFull
// — the serving layer's admission-control signal.
func TestDispatcherQueueFull(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	blocker := workload.Workload{
		Name:        "blocker",
		Description: "holds its worker until released",
		Build: func(seed int64) *vm.Machine {
			started <- struct{}{}
			<-release
			panic("released")
		},
	}
	d := NewDispatcher(1, 1)
	defer d.Close()
	cfg := smallCfg()
	job := Job{Workload: blocker, Variant: core.None, Config: cfg}
	opts := Options{Retries: 0}

	h1, err := d.Submit(context.Background(), job, opts)
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	<-started // the worker is now inside h1's build; the queue is empty
	h2, err := d.Submit(context.Background(), job, opts)
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := d.Submit(context.Background(), job, opts); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit = %v, want ErrQueueFull", err)
	}
	if d.Inflight() != 2 {
		t.Errorf("Inflight = %d, want 2", d.Inflight())
	}

	close(release)
	for _, h := range []*Pending{h1, h2} {
		cell, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		var pe *PanicError
		if cell.Err == nil || !errors.As(cell.Err, &pe) {
			t.Fatalf("blocker cell err = %v, want *PanicError", cell.Err)
		}
	}
}

// TestDispatcherClosedRejects checks Submit after Close fails cleanly.
func TestDispatcherClosedRejects(t *testing.T) {
	d := NewDispatcher(1, 1)
	d.Close()
	_, err := d.Submit(context.Background(), Job{Workload: workload.All()[0], Variant: core.None, Config: smallCfg()}, Options{})
	if !errors.Is(err, ErrDispatcherClosed) {
		t.Fatalf("Submit after Close = %v, want ErrDispatcherClosed", err)
	}
}

// TestDispatcherWeightedFairness pre-queues jobs for a weight-2 and a
// weight-1 tenant behind a blocked single worker and checks the
// service order interleaves 2:1 — the weighted-fair guarantee that a
// greedy tenant cannot starve a polite one.
func TestDispatcherWeightedFairness(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocker := workload.Workload{
		Name:        "blocker",
		Description: "holds the worker while the tenant queues fill",
		Build: func(seed int64) *vm.Machine {
			started <- struct{}{}
			<-release
			panic("released")
		},
	}
	var mu sync.Mutex
	var order []string
	recorder := func(tenant string) workload.Workload {
		return workload.Workload{
			Name:        "rec-" + tenant,
			Description: "records its service order",
			Build: func(seed int64) *vm.Machine {
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				panic("recorded")
			},
		}
	}

	d := NewDispatcher(1, 16)
	defer d.Close()
	cfg := smallCfg()
	opts := Options{Retries: 0}
	if _, err := d.SubmitTenant(context.Background(), Job{Workload: blocker, Variant: core.None, Config: cfg}, opts, "warm", 1); err != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	<-started // the worker is held; everything below queues up

	const perTenant = 6
	var handles []*Pending
	for i := 0; i < perTenant; i++ {
		h, err := d.SubmitTenant(context.Background(), Job{Workload: recorder("A"), Variant: core.None, Config: cfg}, opts, "A", 2)
		if err != nil {
			t.Fatalf("A submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	for i := 0; i < perTenant; i++ {
		h, err := d.SubmitTenant(context.Background(), Job{Workload: recorder("B"), Variant: core.None, Config: cfg}, opts, "B", 1)
		if err != nil {
			t.Fatalf("B submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}

	close(release)
	for i, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	if len(order) != 2*perTenant {
		t.Fatalf("served %d jobs, want %d", len(order), 2*perTenant)
	}
	// Start-time fair queueing with weights 2:1 serves A twice per B
	// until A drains: any 3-long window of the first 9 services holds
	// exactly one B.
	firstB := -1
	var aServed, bServed int
	for i, tenant := range order[:9] {
		if tenant == "B" {
			bServed++
			if firstB == -1 {
				firstB = i
			}
		} else {
			aServed++
		}
	}
	if aServed != 6 || bServed != 3 {
		t.Errorf("first 9 services = %v, want 6 A + 3 B (2:1 weighted share)", order[:9])
	}
	if firstB == -1 || firstB > 2 {
		t.Errorf("polite tenant's first service at position %d of %v, want within the first 3", firstB, order)
	}

	stats := d.Tenants()
	byName := map[string]TenantStat{}
	for _, s := range stats {
		byName[s.Tenant] = s
	}
	if a := byName["A"]; a.Weight != 2 || a.Completed != perTenant {
		t.Errorf("tenant A stats = %+v", a)
	}
	if b := byName["B"]; b.Weight != 1 || b.Completed != perTenant {
		t.Errorf("tenant B stats = %+v", b)
	}
}

// TestRunCheckedMatchesDispatcher runs the same job list through the
// batch RunChecked path and through direct dispatcher submits and
// checks the results agree cell for cell.
func TestRunCheckedMatchesDispatcher(t *testing.T) {
	cfg := smallCfg()
	var jobs []Job
	for _, w := range workload.All()[:3] {
		for _, v := range []core.Variant{core.None, core.PSBConfPriority} {
			jobs = append(jobs, Job{Workload: w, Variant: v, Config: cfg})
		}
	}
	batch, err := New(4).RunChecked(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}

	d := NewDispatcher(4, len(jobs))
	defer d.Close()
	handles := make([]*Pending, len(jobs))
	for i, j := range jobs {
		h, err := d.Submit(context.Background(), j, Options{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		cell, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if !reflect.DeepEqual(cell.Result, batch[i].Result) {
			t.Errorf("cell %d: dispatcher result differs from RunChecked", i)
		}
	}
}
