package runner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by Dispatcher.Submit when the submission
// queue is at capacity. Callers that front a network (cmd/psbserved)
// translate it into 429 + Retry-After; batch drivers size the queue to
// the batch and never see it.
var ErrQueueFull = errors.New("runner: dispatch queue full")

// ErrDispatcherClosed is returned by Submit after Close.
var ErrDispatcherClosed = errors.New("runner: dispatcher closed")

// Pending is a handle to one submitted job. The zero value is not
// useful; Dispatcher.Submit is the constructor.
type Pending struct {
	job  Job
	fp   string
	opts Options
	ctx  context.Context
	tq   *tenantQueue
	done chan struct{}
	cell CellResult
}

// Fingerprint returns the submitted job's deterministic identity.
func (p *Pending) Fingerprint() string { return p.fp }

// Done is closed when the job has finished (successfully or not).
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the job finishes or ctx expires. On expiry the job
// keeps running on its worker (its own submission context still
// governs it); only the wait is abandoned.
func (p *Pending) Wait(ctx context.Context) (CellResult, error) {
	select {
	case <-p.done:
		return p.cell, nil
	case <-ctx.Done():
		return CellResult{}, ctx.Err()
	}
}

// wait blocks until the job finishes. Safe for batch drivers: every
// submitted job completes because runCell returns promptly once its
// context is done.
func (p *Pending) wait() CellResult {
	<-p.done
	return p.cell
}

// tenantQueue is one tenant's backlog plus its position in virtual
// time. Tenants are created lazily on first submit and kept for the
// dispatcher's lifetime (their counters feed the server's stats).
type tenantQueue struct {
	name   string
	weight float64
	fifo   []*Pending
	// vfinish is the tenant's next virtual finish tag: the scheduler
	// always serves the non-empty tenant with the smallest tag, and
	// each served job advances the tag by 1/weight, so a weight-2
	// tenant receives twice the service of a weight-1 tenant under
	// contention. An idle tenant re-joining is clamped to the current
	// virtual time so it can neither bank credit nor be punished for
	// having been idle.
	vfinish   float64
	completed uint64
}

// TenantStat is one tenant's dispatcher-side accounting.
type TenantStat struct {
	Tenant    string  `json:"tenant"`
	Weight    float64 `json:"weight"`
	Queued    int     `json:"queued"`
	Completed uint64  `json:"completed"`
}

// Dispatcher is the asynchronous submission front end over the checked
// execution path: a fixed set of long-lived workers drains a bounded
// queue of jobs, each executed with runCell's panic recovery, retry
// and wall-clock-timeout machinery. Scheduling across tenants is
// weighted-fair (start-time fair queueing over per-tenant FIFOs), so
// one tenant's burst cannot starve another's steady trickle; with a
// single tenant — the batch CLI path — it degenerates to plain FIFO.
// Pool.RunChecked batches through a transient Dispatcher;
// cmd/psbserved keeps one alive for the process and feeds it requests,
// so the CLI and the server exercise the same execution path.
type Dispatcher struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	// order preserves tenant creation order so virtual-time ties break
	// deterministically.
	order    []*tenantQueue
	queued   int
	queueCap int
	closed   bool
	vtime    float64
	workers  int
	wg       sync.WaitGroup
	// inflight counts jobs admitted but not yet finished (queued plus
	// running); servers report it as queue depth.
	inflight atomic.Int64
	finished atomic.Uint64
}

// NewDispatcher starts a dispatcher with the given concurrency and
// submission-queue capacity. workers <= 0 selects one worker per
// available CPU (as Pool); queueCap <= 0 selects workers (a full
// pipeline with no slack). Close releases the workers.
func NewDispatcher(workers, queueCap int) *Dispatcher {
	workers = New(workers).Workers()
	if queueCap <= 0 {
		queueCap = workers
	}
	d := &Dispatcher{
		tenants:  make(map[string]*tenantQueue),
		queueCap: queueCap,
		workers:  workers,
	}
	d.cond = sync.NewCond(&d.mu)
	d.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go d.worker()
	}
	return d
}

// worker drains the fair queue until Close.
func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for {
		p, ok := d.next()
		if !ok {
			return
		}
		p.cell = executeCell(p.ctx, p.job, p.fp, p.opts)
		d.inflight.Add(-1)
		d.finished.Add(1)
		d.mu.Lock()
		p.tq.completed++
		d.mu.Unlock()
		close(p.done)
	}
}

// next blocks until a job is schedulable (or the dispatcher is closed
// and drained) and dequeues the head of the non-empty tenant with the
// smallest virtual finish tag.
func (d *Dispatcher) next() (*Pending, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.queued > 0 {
			var best *tenantQueue
			for _, tq := range d.order {
				if len(tq.fifo) > 0 && (best == nil || tq.vfinish < best.vfinish) {
					best = tq
				}
			}
			p := best.fifo[0]
			best.fifo[0] = nil
			best.fifo = best.fifo[1:]
			d.queued--
			d.vtime = best.vfinish
			best.vfinish += 1 / best.weight
			return p, true
		}
		if d.closed {
			return nil, false
		}
		d.cond.Wait()
	}
}

// Submit enqueues one job for the default tenant without blocking: it
// returns ErrQueueFull when the queue is at capacity and
// ErrDispatcherClosed after Close. ctx governs the job's execution
// (cancellation aborts the simulation at its next context check), not
// the enqueue.
func (d *Dispatcher) Submit(ctx context.Context, j Job, opts Options) (*Pending, error) {
	return d.SubmitTenant(ctx, j, opts, "", 1)
}

// SubmitTenant enqueues one job on the named tenant's queue with the
// given scheduling weight (weight <= 0 selects 1; the last non-default
// weight submitted for a tenant sticks). Admission is shared — the
// queue bound is global, which is what overload protection wants — but
// service is weighted-fair across tenants.
func (d *Dispatcher) SubmitTenant(ctx context.Context, j Job, opts Options, tenant string, weight float64) (*Pending, error) {
	if weight <= 0 {
		weight = 1
	}
	p := &Pending{job: j, fp: j.Fingerprint(), opts: opts, ctx: ctx, done: make(chan struct{})}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrDispatcherClosed
	}
	if d.queued >= d.queueCap {
		return nil, ErrQueueFull
	}
	tq := d.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{name: tenant, weight: weight, vfinish: d.vtime}
		d.tenants[tenant] = tq
		d.order = append(d.order, tq)
	} else {
		tq.weight = weight
		if len(tq.fifo) == 0 && tq.vfinish < d.vtime {
			tq.vfinish = d.vtime
		}
	}
	p.tq = tq
	tq.fifo = append(tq.fifo, p)
	d.queued++
	d.inflight.Add(1)
	d.cond.Signal()
	return p, nil
}

// Inflight returns the number of jobs admitted but not yet finished
// (queued plus running).
func (d *Dispatcher) Inflight() int { return int(d.inflight.Load()) }

// Finished returns the number of jobs completed over the dispatcher's
// lifetime.
func (d *Dispatcher) Finished() uint64 { return d.finished.Load() }

// Workers returns the dispatcher's concurrency.
func (d *Dispatcher) Workers() int { return d.workers }

// QueueCap returns the submission queue's capacity.
func (d *Dispatcher) QueueCap() int { return d.queueCap }

// Tenants snapshots per-tenant scheduling state, sorted by tenant
// name for stable rendering.
func (d *Dispatcher) Tenants() []TenantStat {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TenantStat, 0, len(d.order))
	for _, tq := range d.order {
		out = append(out, TenantStat{
			Tenant:    tq.name,
			Weight:    tq.weight,
			Queued:    len(tq.fifo),
			Completed: tq.completed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Close stops admission, drains the queued jobs and waits for the
// workers to exit. Every Pending submitted before Close still
// completes.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// executeCell is the one checked execution path: runCell (panic
// recovery, retries, per-attempt timeout), then a save to the result
// store when one is set. Both the batch RunChecked path and the serving
// Dispatcher end up here.
func executeCell(ctx context.Context, j Job, fp string, opts Options) CellResult {
	cell := runCell(ctx, j, fp, opts)
	if cell.OK() && opts.Store != nil {
		if err := opts.Store.Save(fp, cell.Result); err != nil {
			cell.Err = &JobError{
				Workload: j.Workload.Name, Variant: j.Variant,
				Fingerprint: fp, Attempts: cell.Attempts,
				Err: fmt.Errorf("result store write: %w", err),
			}
		}
	}
	return cell
}
