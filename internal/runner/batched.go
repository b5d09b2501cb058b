package runner

import (
	"context"
	"runtime/debug"

	"repro/internal/sim"
	"repro/internal/trace"
)

// batchChunk is how many instructions each machine in a lockstep batch
// advances per turn. Large enough that per-turn scheduling overhead
// (a method call and a couple of branches per machine) vanishes,
// small enough that the batch's machines stay within one trace
// window of each other and the region of the shared recording they are
// decoding stays in cache.
const batchChunk = 4096

// RunBatched executes every job with per-cell fault isolation, like
// RunChecked, but instead of running each cell to completion alone it
// groups jobs that replay the same recorded trace (equal
// sim.TraceKey) and advances up to batch of them in lockstep on one
// goroutine: every machine in the group runs batchChunk instructions,
// then the next machine, round after round until all finish. The
// machines march through the shared recording together, so the trace
// bytes being decoded — and the allocator-fresh simulation state —
// stay hot in cache across the whole group instead of being streamed
// through memory once per cell.
//
// Lockstep groups are independent, so they fan out across the pool's
// workers; within a group execution is strictly serial. Results are
// bit-identical to RunChecked for any batch size (results are keyed
// by job position, and a paused-and-resumed machine is bit-identical
// to an unpaused one). batch <= 1 degenerates to per-cell runs.
//
// A cell whose machine fails to build, panics mid-flight, or
// deadlocks is retried standalone through the same runCell path
// RunChecked uses (honoring opts.Timeout and opts.Retries); the rest
// of its group carries on. Cancelling ctx behaves as in RunChecked.
func (p *Pool) RunBatched(ctx context.Context, jobs []Job, batch int, opts Options) ([]CellResult, error) {
	if batch < 1 {
		batch = 1
	}
	cells := make([]CellResult, len(jobs))
	fps := make([]string, len(jobs))
	pending := make([]int, 0, len(jobs))
	for i, j := range jobs {
		fps[i] = j.Fingerprint()
		if opts.Checkpoint != nil {
			if res, ok := opts.Checkpoint.Lookup(fps[i]); ok {
				cells[i] = CellResult{Result: res, Cached: true}
				continue
			}
		}
		pending = append(pending, i)
	}

	// Group pending jobs by trace identity, preserving job order, then
	// split each group into lockstep batches. Group order follows first
	// appearance, so the batch list is deterministic.
	groupOf := make(map[trace.Key]int)
	var groups [][]int
	for _, i := range pending {
		k := sim.TraceKey(jobs[i].Workload, jobs[i].Config)
		g, ok := groupOf[k]
		if !ok {
			g = len(groups)
			groupOf[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	var batches [][]int
	for _, g := range groups {
		for len(g) > batch {
			batches = append(batches, g[:batch])
			g = g[batch:]
		}
		if len(g) > 0 {
			batches = append(batches, g)
		}
	}

	p.Map(len(batches), func(b int) {
		runLockstep(ctx, jobs, fps, cells, batches[b], opts)
	})

	if opts.Checkpoint != nil {
		for _, i := range pending {
			if cells[i].Err == nil && cells[i].Attempts > 0 {
				// A full checkpoint disk is not a cell failure: the
				// result is in hand, only resumability is lost (the
				// dispatcher path treats Record the same way).
				_ = opts.Checkpoint.Record(fps[i], jobs[i], cells[i].Result)
			}
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

// runLockstep advances one batch of same-trace machines in lockstep,
// writing each finished cell into cells. Any machine that cannot be
// built or fails mid-flight is re-run standalone via runCell, which
// owns the retry and timeout policy; a panic there stays isolated to
// its cell exactly as under RunChecked.
func runLockstep(ctx context.Context, jobs []Job, fps []string, cells []CellResult, idxs []int, opts Options) {
	type lane struct {
		job  int
		m    *sim.Machine
		done bool
	}
	lanes := make([]lane, 0, len(idxs))
	for _, i := range idxs {
		m, err := buildMachine(jobs[i])
		if err != nil {
			// Deterministic build failures (bad config) and transient
			// ones (a build panic) both take the standalone path; it
			// classifies and retries them with full attribution.
			cells[i] = runCell(ctx, jobs[i], fps[i], opts)
			continue
		}
		lanes = append(lanes, lane{job: i, m: m})
	}

	live := len(lanes)
	for stop := uint64(batchChunk); live > 0; stop += batchChunk {
		for l := range lanes {
			ln := &lanes[l]
			if ln.done {
				continue
			}
			done, err := advanceMachine(ctx, ln.m, stop)
			switch {
			case err != nil:
				ln.done = true
				live--
				if ctx.Err() != nil {
					// Canceled: report the cancellation, not a retry.
					cells[ln.job] = CellResult{Attempts: 1, Err: &JobError{
						Workload:    jobs[ln.job].Workload.Name,
						Variant:     jobs[ln.job].Variant,
						Fingerprint: fps[ln.job], Attempts: 1, Err: err,
					}}
					continue
				}
				cells[ln.job] = runCell(ctx, jobs[ln.job], fps[ln.job], opts)
			case done:
				ln.done = true
				live--
				cells[ln.job] = CellResult{Result: ln.m.Result(), Attempts: 1}
			}
		}
	}
}

// buildMachine constructs a job's resumable machine, converting a
// build panic into an error so one broken cell cannot take down its
// whole batch.
func buildMachine(j Job) (m *sim.Machine, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return sim.NewMachine(j.Workload, j.Variant, j.Config)
}

// advanceMachine steps one machine with panic isolation.
func advanceMachine(ctx context.Context, m *sim.Machine, stop uint64) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return m.Advance(ctx, stop)
}
