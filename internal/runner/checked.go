package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/results"
	"repro/internal/sim"
)

// PanicError wraps a panic recovered from a job (or a Map call) with
// the goroutine stack captured at recover time, so a cell failure in a
// parallel run is as debuggable as a crash in a serial one.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// JobError ties one cell's failure to the job that caused it.
type JobError struct {
	Workload    string
	Variant     core.Variant
	Fingerprint string
	Attempts    int   // simulation attempts consumed (0 = never started)
	Err         error // *PanicError, *cpu.DeadlockError, *sim.ConfigError, or a context error
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("job %s/%s [%s] failed after %d attempt(s): %v",
		e.Workload, e.Variant, e.Fingerprint, e.Attempts, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// CellResult is the outcome of one matrix cell under RunChecked.
type CellResult struct {
	Result sim.Result
	// Err is nil on success; a *JobError describing the failure (or,
	// for cells that never ran because the run was canceled, the
	// cancellation) otherwise.
	Err *JobError
	// Cached reports the result came from the result store, not a run.
	Cached bool
	// Attempts is the number of simulation attempts consumed.
	Attempts int
}

// OK reports whether the cell completed.
func (c CellResult) OK() bool { return c.Err == nil }

// Options parameterizes the checked execution path.
type Options struct {
	// Timeout bounds each job attempt's wall clock; 0 = unlimited.
	// Enforcement is cooperative: the simulator checks its context
	// every few thousand simulated cycles.
	Timeout time.Duration
	// Retries is how many times a job is re-run after a transient
	// failure (a panic or a tripped wall-clock timeout); deterministic
	// failures — invalid configs, simulated deadlocks — are never
	// retried. Negative means 0.
	Retries int
	// Store, when non-nil, holds finished cells across runs:
	// RunChecked serves a cell stored there instead of simulating it,
	// and each cell that completes is saved to it.
	Store *results.Store
	// FaultHook, when non-nil, runs at the start of every simulation
	// attempt, inside the attempt's panic recovery and wall-clock
	// timeout. It is the fault-injection seam: a hook may sleep (a
	// slow simulation) or panic (a crashed one) and the checked path
	// treats the outcome exactly like a real fault — recovered,
	// counted against the attempt, and retried per Retries. Production
	// callers leave it nil and pay a single pointer comparison.
	FaultHook func()
}

// DefaultOptions returns the checked path's defaults: no timeout, one
// retry, no result store.
func DefaultOptions() Options { return Options{Retries: 1} }

// Fingerprint returns the job's deterministic identity: a hash of the
// workload name, variant and configuration. Two jobs that must produce
// equal results have equal fingerprints. Config.Workers, the trace
// fields and CycleMode are excluded, because neither concurrency, the
// stream's provenance (live or replayed) nor how the clock advances
// changes a result: event-driven skipping matches accurate ticking in
// every table and machine statistic, and differs only in the skip
// telemetry (CPU.SkippedCycles and CPU.Jumps). Result stores, serve
// caches and peer fills are keyed by this.
func (j Job) Fingerprint() string {
	var key fingerprintKey
	key.Workload = j.Workload.Name
	key.Variant = int(j.Variant)
	c := &key.Config
	c.CPU = j.Config.CPU
	c.CPU.CycleMode = cpu.CycleModeDefault
	c.Mem = j.Config.Mem
	c.Opts = j.Config.Opts
	c.MaxInsts = j.Config.MaxInsts
	c.Seed = j.Config.Seed
	c.CollectFig4 = j.Config.CollectFig4
	c.SampleMode = int(j.Config.SampleMode)
	c.SamplePeriod = j.Config.SamplePeriod
	c.SampleLen = j.Config.SampleLen
	c.SampleWarmup = j.Config.SampleWarmup
	b, err := json.Marshal(key)
	if err != nil {
		// The key is plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// fingerprintKey is the JSON document Fingerprint hashes. Its layout is
// frozen: stored fingerprints were computed from exactly these field
// names, order and types, so adding or removing a sim.Config field does
// not re-key stored results. Workers, Batch, TraceMode and TraceDir are
// always zero. They hold the place of Config fields that are excluded
// (Workers and the trace fields) or gone (Batch, a retired lockstep
// batch size).
type fingerprintKey struct {
	Workload string
	Variant  int
	Config   struct {
		CPU          cpu.Config
		Mem          mem.Config
		Opts         core.Options
		MaxInsts     uint64
		Seed         int64
		CollectFig4  bool
		Workers      int
		Batch        int
		TraceMode    int
		TraceDir     string
		SampleMode   int
		SamplePeriod uint64
		SampleLen    uint64
		SampleWarmup uint64
	}
}

// RunChecked executes every job with per-cell fault isolation and
// returns one CellResult per job, in job order. A job that panics,
// deadlocks, times out or carries an invalid configuration fails only
// its own cell; the rest of the matrix completes. When opts.Store is
// set, each cell is looked up there before dispatch and saved there
// when it completes.
//
// Execution flows through a transient Dispatcher — the same submit
// path cmd/psbserved keeps alive across requests — so the batch CLI
// and the server share one retry/timeout/panic-isolation machinery.
//
// Cancelling ctx drains gracefully: queued jobs fail fast with ctx's
// error, running simulations abort at their next context check,
// already-saved cells stay in the store, and RunChecked returns ctx's
// error with cells that never ran marked as failed by that error. The
// only non-nil error RunChecked itself returns is ctx's; per-cell
// failures live in the cells.
func (p *Pool) RunChecked(ctx context.Context, jobs []Job, opts Options) ([]CellResult, error) {
	cells := make([]CellResult, len(jobs))
	fps := make([]string, len(jobs))
	pending := make([]int, 0, len(jobs))
	for i, j := range jobs {
		fps[i] = j.Fingerprint()
		if opts.Store != nil {
			// Any failed load is a miss: a missing entry simulates, and
			// a corrupt one (quarantined by the store) is re-simulated
			// and overwritten.
			if res, err := opts.Store.Load(fps[i]); err == nil {
				cells[i] = CellResult{Result: res, Cached: true}
				continue
			}
		}
		pending = append(pending, i)
	}

	if len(pending) > 0 {
		workers := p.workers
		if workers > len(pending) {
			workers = len(pending)
		}
		d := NewDispatcher(workers, len(pending))
		defer d.Close()
		handles := make([]*Pending, len(pending))
		for k, i := range pending {
			// The queue is sized to the batch, so Submit cannot fail.
			h, err := d.Submit(ctx, jobs[i], opts)
			if err != nil {
				panic(err)
			}
			handles[k] = h
		}
		for k, i := range pending {
			cells[i] = handles[k].wait()
		}
	}

	if err := ctx.Err(); err != nil {
		for _, i := range pending {
			if cells[i].Attempts == 0 && cells[i].Err == nil {
				cells[i].Err = &JobError{
					Workload: jobs[i].Workload.Name, Variant: jobs[i].Variant,
					Fingerprint: fps[i], Err: err,
				}
			}
		}
		return cells, err
	}
	return cells, nil
}

// Failures extracts the failed cells' errors, in cell order.
func Failures(cells []CellResult) []*JobError {
	var fails []*JobError
	for _, c := range cells {
		if c.Err != nil {
			fails = append(fails, c.Err)
		}
	}
	return fails
}

// runCell runs one job with panic recovery, a per-attempt timeout and
// the retry policy.
func runCell(ctx context.Context, j Job, fp string, opts Options) CellResult {
	retries := opts.Retries
	if retries < 0 {
		retries = 0
	}
	var cell CellResult
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			break
		}
		cell.Attempts++
		res, err := runJobOnce(ctx, j, opts)
		if err == nil {
			cell.Result = res
			return cell
		}
		lastErr = err
		if !transient(ctx, err) {
			break
		}
	}
	cell.Err = &JobError{
		Workload: j.Workload.Name, Variant: j.Variant,
		Fingerprint: fp, Attempts: cell.Attempts, Err: lastErr,
	}
	return cell
}

// transient reports whether err is worth a retry: panics and per-job
// wall-clock timeouts might be environmental, while config errors and
// simulated deadlocks are deterministic. Nothing is transient once the
// parent context is done.
func transient(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// runJobOnce runs one simulation attempt, converting panics (with
// their stacks) into errors and applying the wall-clock timeout. The
// fault hook, when set, runs inside both the recovery and the timeout,
// so injected faults are indistinguishable from organic ones.
func runJobOnce(ctx context.Context, j Job, opts Options) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if opts.FaultHook != nil {
		opts.FaultHook()
	}
	return sim.RunChecked(ctx, j.Workload, j.Variant, j.Config)
}
