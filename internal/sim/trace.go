package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TraceMode selects how Run obtains the dynamic instruction stream.
type TraceMode int

const (
	// TraceOff executes the functional simulator live, as the seed
	// harness always did.
	TraceOff TraceMode = iota
	// TraceMemory records each (workload, seed, MaxInsts) stream once
	// in the process-wide trace cache and replays it for every other
	// run sharing the key. Results are bit-identical to TraceOff.
	TraceMemory
	// TraceDisk is TraceMemory plus persistence: recordings are loaded
	// from and saved to Config.TraceDir as .psbtrace files, so repeat
	// invocations skip functional execution entirely.
	TraceDisk
)

// String renders the mode the way the -trace command-line flags spell
// it.
func (m TraceMode) String() string {
	switch m {
	case TraceOff:
		return "off"
	case TraceMemory:
		return "memory"
	case TraceDisk:
		return "disk"
	}
	return fmt.Sprintf("TraceMode(%d)", int(m))
}

// ParseTraceMode inverts String, for command-line flags.
func ParseTraceMode(s string) (TraceMode, error) {
	switch s {
	case "off":
		return TraceOff, nil
	case "memory":
		return TraceMemory, nil
	case "disk":
		return TraceDisk, nil
	}
	return TraceOff, fmt.Errorf("sim: unknown trace mode %q (want off, memory or disk)", s)
}

// TraceKey is the trace-cache identity of a run: the committed path
// depends only on the workload, its heap seed and the instruction
// budget — never on the prefetcher or machine geometry.
func TraceKey(w workload.Workload, cfg Config) trace.Key {
	return trace.Key{Workload: w.Name, Seed: cfg.Seed, MaxInsts: cfg.MaxInsts}
}

// TraceNeed returns how many instructions a recording must hold to
// replace live execution for this configuration. The core fetches past
// the commit point — speculatively issued loads shape the stats — so
// the recording extends MaxInsts by the maximum number of in-flight
// instructions (ROB + fetch queue + one commit group, plus slack).
// Zero means "to program completion" (MaxInsts == 0 runs unbounded). A
// length past the uint64 range saturates at math.MaxUint64; Validate
// rejects such budgets.
func TraceNeed(cfg Config) uint64 {
	need, ok := traceNeed(cfg)
	if !ok {
		return math.MaxUint64
	}
	return need
}

// traceNeed is TraceNeed with the overflow reported: ok is false when
// the recording length does not fit in a uint64.
func traceNeed(cfg Config) (need uint64, ok bool) {
	if cfg.MaxInsts == 0 {
		return 0, true
	}
	margin := cfg.CPU.ROBSize + cfg.CPU.FetchQueueSize + cfg.CPU.CommitWidth
	if margin < 0 {
		margin = 0
	}
	tail := uint64(margin) + 8
	need, carry := bits.Add64(cfg.MaxInsts, tail, 0)
	if cfg.SampleMode != SampleOff {
		// The last measurement interval starts at a jittered offset
		// within the final period stratum below MaxInsts and runs
		// warmup+len instructions past it (offset + warmup + len never
		// exceeds one period), plus the same in-flight margin.
		period, _, _ := cfg.sampleSpec()
		last := (cfg.MaxInsts - 1) / period * period
		n, c1 := bits.Add64(last, period, 0)
		n, c2 := bits.Add64(n, tail, 0)
		carry |= c1 | c2
		need = max(need, n)
	}
	return need, carry == 0
}

// source returns the instruction stream for one run: the live
// functional machine when tracing is off, otherwise the recording's
// replay.
func source(w workload.Workload, cfg Config) (cpu.Source, error) {
	if cfg.TraceMode == TraceOff {
		return cpu.MachineSource{M: w.Build(cfg.Seed)}, nil
	}
	return recording(w, cfg)
}

// recording returns a replay that decodes the shared cache's recording
// of the run's stream in batches, recording it first if this is the
// key's first run. Under disk tracing the recording is loaded from and
// saved to TraceDir.
func recording(w workload.Workload, cfg Config) (*trace.Replay, error) {
	dir := ""
	if cfg.TraceMode == TraceDisk {
		dir = cfg.TraceDir
	}
	return trace.Shared().Source(TraceKey(w, cfg), TraceNeed(cfg), dir,
		func() *vm.Machine { return w.Build(cfg.Seed) })
}

// WarmTrace ensures the workload's stream is recorded in the shared
// trace cache (a no-op when cfg.TraceMode is TraceOff), so subsequent
// Runs replay instead of racing to record. Experiment drivers call it
// once per workload before fanning a matrix out across workers; any
// panic from workload construction is returned as an error.
func WarmTrace(w workload.Workload, cfg Config) (err error) {
	if cfg.TraceMode == TraceOff {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: warming trace for %s: %v", w.Name, r)
		}
	}()
	_, err = source(w, cfg)
	return err
}
