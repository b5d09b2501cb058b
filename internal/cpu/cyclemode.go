package cpu

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// CycleMode selects how RunChecked advances the simulated clock.
//
// Both modes produce the same tables and the same value for every
// machine statistic: event-driven skipping only jumps over cycles in
// which no component can change observable state (see the skipping
// invariants in EXPERIMENTS.md), and the differential tests in
// internal/sim enforce equality on every workload × scheme cell. Only
// the skip telemetry differs: Stats.SkippedCycles and Stats.Jumps
// count the jumps, so they are zero in accurate mode and a result's
// JSON encoding differs in those two fields. CycleModeAccurate exists
// for debugging a suspected skip bug — if results ever differ with
// it, the skip logic is at fault — and for timing comparisons.
type CycleMode int

const (
	// CycleModeDefault resolves to CycleModeEvent unless the
	// PSB_CYCLE_MODE environment variable is set to "accurate" (the CI
	// accurate-mode leg forces the whole test suite through the
	// cycle-by-cycle loop that way).
	CycleModeDefault CycleMode = iota
	// CycleModeEvent jumps the clock to the next component event
	// whenever a cycle makes no commit, issue, dispatch or fetch
	// progress.
	CycleModeEvent
	// CycleModeAccurate ticks every cycle unconditionally.
	CycleModeAccurate
)

// String names the mode for flags and stats output.
func (m CycleMode) String() string {
	switch m {
	case CycleModeDefault:
		return "default"
	case CycleModeEvent:
		return "event"
	case CycleModeAccurate:
		return "accurate"
	}
	return fmt.Sprintf("cyclemode(%d)", int(m))
}

// ParseCycleMode converts a flag value into a CycleMode.
func ParseCycleMode(s string) (CycleMode, error) {
	switch strings.ToLower(s) {
	case "", "default":
		return CycleModeDefault, nil
	case "event":
		return CycleModeEvent, nil
	case "accurate":
		return CycleModeAccurate, nil
	}
	return 0, fmt.Errorf("cpu: unknown cycle mode %q (want event, accurate or default)", s)
}

// Validate reports whether the mode is one of the defined values.
func (m CycleMode) Validate() error {
	switch m {
	case CycleModeDefault, CycleModeEvent, CycleModeAccurate:
		return nil
	}
	return fmt.Errorf("cpu: unknown cycle mode %d (want event, accurate or default)", int(m))
}

var envCycleMode struct {
	once     sync.Once
	accurate bool
}

// Resolve returns the mode a run uses. CycleModeEvent and
// CycleModeAccurate resolve to themselves. Any other value resolves to
// CycleModeAccurate when the PSB_CYCLE_MODE environment variable says
// "accurate" (read once per process), and to CycleModeEvent otherwise.
func (m CycleMode) Resolve() CycleMode {
	switch m {
	case CycleModeEvent, CycleModeAccurate:
		return m
	}
	envCycleMode.once.Do(func() {
		envCycleMode.accurate = strings.EqualFold(os.Getenv("PSB_CYCLE_MODE"), "accurate")
	})
	if envCycleMode.accurate {
		return CycleModeAccurate
	}
	return CycleModeEvent
}

// eventDriven reports whether the mode resolves to the event-driven
// fast-forward path.
func (m CycleMode) eventDriven() bool { return m.Resolve() == CycleModeEvent }
