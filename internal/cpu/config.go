// Package cpu is the cycle-level timing model of the paper's baseline
// processor (§5.1): an 8-wide dynamically-scheduled core with a
// 128-entry reorder buffer, a 64-entry load/store queue, a gshare
// front end (two predictions per cycle, 8-cycle minimum misprediction
// penalty), the paper's functional-unit mix and latencies, and
// perfect-store-set memory disambiguation.
//
// The model is trace-driven over the committed-path dynamic
// instruction stream from internal/vm, which arrives through one batch
// contract, Source: the live MachineSource, a trace.Replay or a
// SliceSource. Fetch follows the branch predictor: a mispredicted
// control transfer stalls the front end until the branch resolves plus
// the refill penalty. Wrong-path memory references are not injected
// (see DESIGN.md); the prefetcher under study is driven by the
// commit-order miss stream, exactly as the paper's predictor is
// trained at write-back.
package cpu

import (
	"fmt"

	"repro/internal/isa"
)

// Disambiguation selects the load/store-queue ordering policy of
// Figure 11.
type Disambiguation int

const (
	// DisPerfect is perfect store sets: a load waits only for older
	// stores that actually write bytes the load reads, and forwards
	// from them.
	DisPerfect Disambiguation = iota
	// DisNone makes every load wait until all older stores have
	// issued.
	DisNone
)

// String names the policy.
func (d Disambiguation) String() string {
	if d == DisNone {
		return "NoDis"
	}
	return "Dis"
}

// Config parameterizes the core. DefaultConfig matches the paper.
type Config struct {
	FetchWidth  int // instructions fetched per cycle
	DecodeWidth int // dispatched into the ROB per cycle
	IssueWidth  int // issued to functional units per cycle
	CommitWidth int // retired per cycle

	ROBSize int
	LSQSize int

	BranchPredPerCycle int    // gshare predictions per cycle
	MispredictPenalty  uint64 // minimum front-end refill after resolve

	FetchQueueSize int

	L1HitLatency        uint64 // load-to-use latency on an L1D hit
	StoreForwardLatency uint64 // store-to-load forward latency

	Disambiguation Disambiguation

	Gshare GshareConfig

	// WatchdogCycles is the no-commit watchdog threshold: a run aborts
	// (Run panics, RunChecked returns a *DeadlockError) after this many
	// consecutive cycles without a commit. 0 selects
	// DefaultWatchdogCycles.
	WatchdogCycles uint64

	// CycleMode selects how the clock advances: event-driven skipping
	// (the zero-value default) or the cycle-by-cycle accurate loop.
	// Both produce the same statistics except the skip telemetry; see
	// CycleMode's docs.
	CycleMode CycleMode

	// FUCount[class] is the number of functional units per class;
	// FULatency[class] their latency; FUPipelined[class] whether a
	// unit can accept a new operation every cycle.
	FUCount     [isa.NumClasses]int
	FULatency   [isa.NumClasses]uint64
	FUPipelined [isa.NumClasses]bool
}

// DefaultConfig returns the paper's baseline core: 8-wide, 128-entry
// ROB, 64-entry LSQ, 8 int ALUs (1 cycle), 2 int MUL/DIV (3/12,
// divides unpipelined), 4 load/store ports, 2 FP adders (2), 2 FP
// MUL/DIV (4/12, divides unpipelined), 2-cycle store forwarding,
// perfect store sets.
func DefaultConfig() Config {
	c := Config{
		FetchWidth:          8,
		DecodeWidth:         8,
		IssueWidth:          8,
		CommitWidth:         8,
		ROBSize:             128,
		LSQSize:             64,
		BranchPredPerCycle:  2,
		MispredictPenalty:   8,
		FetchQueueSize:      32,
		L1HitLatency:        1,
		StoreForwardLatency: 2,
		Disambiguation:      DisPerfect,
		Gshare:              DefaultGshareConfig(),
	}
	c.FUCount[isa.ClassIntALU] = 8
	c.FULatency[isa.ClassIntALU] = 1
	c.FUPipelined[isa.ClassIntALU] = true

	// The paper's two integer MULT/DIV units are modeled as separate
	// pools sharing the count; see fuPool mapping in cpu.go.
	c.FUCount[isa.ClassIntMul] = 2
	c.FULatency[isa.ClassIntMul] = 3
	c.FUPipelined[isa.ClassIntMul] = true
	c.FUCount[isa.ClassIntDiv] = 2
	c.FULatency[isa.ClassIntDiv] = 12
	c.FUPipelined[isa.ClassIntDiv] = false

	c.FUCount[isa.ClassLoad] = 4
	c.FULatency[isa.ClassLoad] = 1 // port occupancy; memory adds the rest
	c.FUPipelined[isa.ClassLoad] = true
	c.FUCount[isa.ClassStore] = 4
	c.FULatency[isa.ClassStore] = 1
	c.FUPipelined[isa.ClassStore] = true

	c.FUCount[isa.ClassBranch] = 8 // branches execute on the int ALUs
	c.FULatency[isa.ClassBranch] = 1
	c.FUPipelined[isa.ClassBranch] = true

	c.FUCount[isa.ClassFPAdd] = 2
	c.FULatency[isa.ClassFPAdd] = 2
	c.FUPipelined[isa.ClassFPAdd] = true
	c.FUCount[isa.ClassFPMul] = 2
	c.FULatency[isa.ClassFPMul] = 4
	c.FUPipelined[isa.ClassFPMul] = true
	c.FUCount[isa.ClassFPDiv] = 2
	c.FULatency[isa.ClassFPDiv] = 12
	c.FUPipelined[isa.ClassFPDiv] = false

	c.FUCount[isa.ClassNop] = 8
	c.FULatency[isa.ClassNop] = 1
	c.FUPipelined[isa.ClassNop] = true
	return c
}

// Validate reports whether the configuration can build and run a CPU:
// positive pipeline widths and structure sizes within sane bounds, at
// least one functional unit with a positive latency per class, and a
// constructible gshare front end.
func (c Config) Validate() error {
	const maxWidth = 1 << 16
	const maxSize = 1 << 20
	for _, w := range []struct {
		name string
		v    int
	}{
		{"fetch width", c.FetchWidth},
		{"decode width", c.DecodeWidth},
		{"issue width", c.IssueWidth},
		{"commit width", c.CommitWidth},
		{"branch predictions per cycle", c.BranchPredPerCycle},
	} {
		if w.v <= 0 || w.v > maxWidth {
			return fmt.Errorf("cpu: %s %d outside 1..%d", w.name, w.v, maxWidth)
		}
	}
	for _, s := range []struct {
		name string
		v    int
	}{
		{"ROB size", c.ROBSize},
		{"LSQ size", c.LSQSize},
		{"fetch queue size", c.FetchQueueSize},
	} {
		if s.v <= 0 || s.v > maxSize {
			return fmt.Errorf("cpu: %s %d outside 1..%d", s.name, s.v, maxSize)
		}
	}
	if c.L1HitLatency == 0 {
		return fmt.Errorf("cpu: L1 hit latency must be positive")
	}
	if c.Disambiguation != DisPerfect && c.Disambiguation != DisNone {
		return fmt.Errorf("cpu: unknown disambiguation policy %d", int(c.Disambiguation))
	}
	if err := c.CycleMode.Validate(); err != nil {
		return err
	}
	for cl := 0; cl < int(isa.NumClasses); cl++ {
		if c.FUCount[cl] <= 0 || c.FUCount[cl] > maxWidth {
			return fmt.Errorf("cpu: functional unit class %d count %d outside 1..%d", cl, c.FUCount[cl], maxWidth)
		}
		if c.FULatency[cl] == 0 {
			return fmt.Errorf("cpu: functional unit class %d latency must be positive", cl)
		}
	}
	return c.Gshare.Validate()
}

// fuPool models a group of functional units, each busy until a given
// cycle. Pools may be shared between opcode classes (the paper's two
// integer MULT/DIV units serve both MUL and DIV): the per-issue
// occupancy is 1 cycle for pipelined operations and the full latency
// for unpipelined ones, passed by the caller.
type fuPool struct {
	busyUntil []uint64
}

func newFUPool(count int) *fuPool {
	return &fuPool{busyUntil: make([]uint64, count)}
}

// tryIssue reserves a unit at cycle for occupancy cycles, reporting
// success.
func (p *fuPool) tryIssue(cycle, occupancy uint64) bool {
	for i := range p.busyUntil {
		if p.busyUntil[i] <= cycle {
			p.busyUntil[i] = cycle + occupancy
			return true
		}
	}
	return false
}

// earliestFree returns the first cycle at which some unit in the pool
// can accept an operation (tryIssue at that cycle succeeds).
func (p *fuPool) earliestFree() uint64 {
	m := p.busyUntil[0]
	for _, b := range p.busyUntil[1:] {
		if b < m {
			m = b
		}
	}
	return m
}
