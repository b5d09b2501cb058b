// Package runner fans independent simulations out across a bounded
// worker pool. Every (workload, variant, config) cell of the paper's
// evaluation matrix is an isolated full-machine simulation —
// sim.RunChecked shares no mutable state between calls — so the
// experiment drivers are embarrassingly parallel and wall-clock should
// scale with cores, not with matrix size.
//
// Determinism: results are keyed by job position, never by completion
// order, and each simulation is single-threaded internally, so a
// parallel run produces bit-identical output to a serial run of the
// same job list.
package runner

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Job names one independent simulation: one benchmark run under one
// prefetcher variant with one machine configuration.
type Job struct {
	Workload workload.Workload
	Variant  core.Variant
	Config   sim.Config
}

// Pool is a bounded worker pool for independent simulations. The zero
// value is not useful; construct with New or ForWorkers.
type Pool struct {
	workers int
}

// New returns a pool running up to workers simulations concurrently.
// workers <= 0 selects AvailableParallelism (GOMAXPROCS capped by the
// cgroup CPU quota); workers == 1 keeps all work on the calling
// goroutine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = AvailableParallelism()
	}
	return &Pool{workers: workers}
}

// ForWorkers maps an experiment configuration's Workers field to a
// pool: 0 means serial, n > 0 means n workers, and n < 0 means one
// worker per available CPU (AvailableParallelism).
func ForWorkers(n int) *Pool {
	if n == 0 {
		return New(1)
	}
	if n < 0 {
		return New(0)
	}
	return New(n)
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Map invokes f(0), f(1), ... f(n-1), spreading the calls across the
// pool. Workers claim indices from a shared counter, so a fast worker
// steals the tail of the index space left behind by slow ones and no
// static partition can go idle early. Map returns once every call has
// completed; if any call panics, the first panic is re-raised on the
// caller — wrapped in a *PanicError carrying the worker goroutine's
// stack captured at recover time, since the re-raise on the caller's
// goroutine would otherwise lose the frames that identify the failing
// call — after the remaining workers drain.
func (p *Pool) Map(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  *PanicError
	)
	workers := p.workers
	if workers > n {
		workers = n
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pe := &PanicError{Value: r, Stack: debug.Stack()}
					panicOnce.Do(func() { panicked = pe })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
