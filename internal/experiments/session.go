package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Session drives the experiment suite through the checked runner:
// per-cell panic recovery, wall-clock watchdogs with retry, and an
// optional result store that a later session resumes from. RunMatrix, Fig4, Fig10 and Fig11 are
// one-shot sessions with default options. A Session accumulates
// failure and cache-hit accounting across every table it builds, so a
// driver can render the whole suite and then report what (if anything)
// went wrong, once.
type Session struct {
	Ctx  context.Context
	Cfg  sim.Config
	Opts runner.Options

	failures []*runner.JobError
	cached   int
	ran      int
}

// NewSession returns a session running cfg's experiments under ctx
// with the given checked-runner options.
func NewSession(ctx context.Context, cfg sim.Config, opts runner.Options) *Session {
	return &Session{Ctx: ctx, Cfg: cfg, Opts: opts}
}

// oneShot is the session behind RunMatrix, Fig4, Fig10 and Fig11: no
// cancellation, no timeout, one retry and no result store.
func oneShot(cfg sim.Config) *Session {
	return NewSession(context.Background(), cfg, runner.DefaultOptions())
}

// run executes one batch of jobs through the checked runner and folds
// the batch's failures and cache hits into the session's accounting.
// Cancellation is not an error here: the partially-filled cells come
// back marked and the tables render them as ERR.
func (s *Session) run(jobs []runner.Job) []runner.CellResult {
	cells, _ := runner.ForWorkers(s.Cfg.Workers).RunChecked(s.Ctx, jobs, s.Opts)
	for _, c := range cells {
		switch {
		case c.Err != nil:
			s.failures = append(s.failures, c.Err)
		case c.Cached:
			s.cached++
		default:
			s.ran++
		}
	}
	return cells
}

// Matrix runs the Figure 5-9 evaluation matrix with fault isolation.
func (s *Session) Matrix() *Matrix { return runMatrixWith(s.Cfg, s.run) }

// Fig4 regenerates Figure 4 with fault isolation.
func (s *Session) Fig4() *stats.Table { return fig4With(s.Cfg, s.run) }

// Fig10 regenerates Figure 10 with fault isolation.
func (s *Session) Fig10() *stats.Table { return fig10With(s.Cfg, s.run) }

// Fig11 regenerates Figure 11 with fault isolation.
func (s *Session) Fig11() *stats.Table { return fig11With(s.Cfg, s.run) }

// Failures returns every cell failure recorded so far, in the order
// the batches were run.
func (s *Session) Failures() []*runner.JobError { return s.failures }

// Cached returns how many cells were satisfied from the result store.
func (s *Session) Cached() int { return s.cached }

// Ran returns how many cells were actually simulated.
func (s *Session) Ran() int { return s.ran }

// FailureReport formats the session's failures for a human: one block
// per failed cell naming the job, its fingerprint, the attempt count
// and the underlying error (including a recovered panic's stack).
// Empty when every cell completed.
func (s *Session) FailureReport() string {
	if len(s.failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d cell(s) failed:\n", len(s.failures))
	for _, f := range s.failures {
		fmt.Fprintf(&b, "  %s\n", strings.ReplaceAll(f.Error(), "\n", "\n    "))
	}
	return b.String()
}
