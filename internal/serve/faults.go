package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/results"
)

// FaultPlan describes deterministic fault injection for hardening runs
// and chaos tests. The zero value injects nothing and the server wires
// the fault layer only when a non-zero plan is configured, so
// production deployments pay no cost beyond a nil check.
//
// All rates are probabilities in [0, 1]. Decisions are drawn from a
// splitmix64 stream seeded by Seed, so a chaos run is reproducible:
// the k-th fault decision is a pure function of (Seed, k).
type FaultPlan struct {
	// Seed selects the deterministic decision stream.
	Seed int64
	// SimPanic is the fraction of simulation attempts that panic
	// (recovered and retried by the checked runner, like any crash).
	SimPanic float64
	// SimSlow is the fraction of simulation attempts delayed by
	// SimSlowDur before starting.
	SimSlow    float64
	SimSlowDur time.Duration
	// DiskFail is the fraction of disk-tier reads/writes that fail
	// with an I/O error (the "dying disk": enough consecutive failures
	// demote the node to memory-only).
	DiskFail float64
	// DiskCorrupt is the fraction of disk-tier writes whose bytes are
	// corrupted on the way down — rotating among truncation (a torn
	// write), a single bit flip, and a zero-length file.
	DiskCorrupt float64
	// DiskDelay is added to every disk-tier operation.
	DiskDelay time.Duration
	// QueueDrop is the fraction of dispatcher submissions dropped as
	// if the queue were full (clients see 429).
	QueueDrop float64
	// For bounds the fault window: past this duration after arming the
	// injector stops firing (0 = until Clear). Chaos runs use it to
	// test that the node heals once faults stop.
	For time.Duration
}

// Zero reports whether the plan injects nothing.
func (p FaultPlan) Zero() bool {
	return p.SimPanic == 0 && p.SimSlow == 0 && p.DiskFail == 0 &&
		p.DiskCorrupt == 0 && p.DiskDelay == 0 && p.QueueDrop == 0
}

// String renders the plan in the ParseFaultPlan syntax.
func (p FaultPlan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.Seed != 0 {
		add("seed", strconv.FormatInt(p.Seed, 10))
	}
	frac := func(k string, v float64) {
		if v != 0 {
			add(k, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	frac("sim-panic", p.SimPanic)
	frac("sim-slow", p.SimSlow)
	if p.SimSlowDur != 0 {
		add("sim-slow-dur", p.SimSlowDur.String())
	}
	frac("disk-fail", p.DiskFail)
	frac("disk-corrupt", p.DiskCorrupt)
	if p.DiskDelay != 0 {
		add("disk-delay", p.DiskDelay.String())
	}
	frac("queue-drop", p.QueueDrop)
	if p.For != 0 {
		add("for", p.For.String())
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses the compact comma-separated spec used by the
// -faults flag and the PSB_FAULTS environment variable, e.g.
//
//	seed=7,sim-panic=0.1,disk-corrupt=0.05,disk-fail=0.3,for=12s
//
// Keys: seed=<int>, sim-panic=<frac>, sim-slow=<frac>,
// sim-slow-dur=<dur>, disk-fail=<frac>, disk-corrupt=<frac>,
// disk-delay=<dur>, queue-drop=<frac>, for=<dur>. An empty spec is the
// zero plan.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	var p FaultPlan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return FaultPlan{}, fmt.Errorf("fault spec: %q is not key=value", kv)
		}
		frac := func(dst *float64) error {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("fault spec: %s=%q is not a fraction in [0,1]", key, val)
			}
			*dst = f
			return nil
		}
		dur := func(dst *time.Duration) error {
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("fault spec: %s=%q is not a non-negative duration", key, val)
			}
			*dst = d
			return nil
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("fault spec: seed=%q is not an integer", val)
			}
		case "sim-panic":
			err = frac(&p.SimPanic)
		case "sim-slow":
			err = frac(&p.SimSlow)
		case "sim-slow-dur":
			err = dur(&p.SimSlowDur)
		case "disk-fail":
			err = frac(&p.DiskFail)
		case "disk-corrupt":
			err = frac(&p.DiskCorrupt)
		case "disk-delay":
			err = dur(&p.DiskDelay)
		case "queue-drop":
			err = frac(&p.QueueDrop)
		case "for":
			err = dur(&p.For)
		default:
			err = fmt.Errorf("fault spec: unknown key %q (valid: seed, sim-panic, sim-slow, sim-slow-dur, disk-fail, disk-corrupt, disk-delay, queue-drop, for)", key)
		}
		if err != nil {
			return FaultPlan{}, err
		}
	}
	if p.SimSlow > 0 && p.SimSlowDur == 0 {
		p.SimSlowDur = 50 * time.Millisecond
	}
	return p, nil
}

// FaultCounters tallies faults actually fired, for /v1/stats and chaos
// gating (a chaos run that injected nothing proves nothing).
type FaultCounters struct {
	SimPanics    uint64 `json:"sim_panics"`
	SimSlows     uint64 `json:"sim_slows"`
	DiskFails    uint64 `json:"disk_fails"`
	DiskCorrupts uint64 `json:"disk_corrupts"`
	QueueDrops   uint64 `json:"queue_drops"`
}

// Injector draws deterministic fault decisions from a FaultPlan. Nil
// receivers are valid and inject nothing, so callers hold a possibly-
// nil *Injector and skip all bookkeeping in production.
type Injector struct {
	plan    FaultPlan
	armedAt time.Time
	seq     atomic.Uint64
	cleared atomic.Bool

	simPanics, simSlows, diskFails, diskCorrupts, queueDrops atomic.Uint64
}

// NewInjector arms an injector for the plan; a zero plan yields nil.
func NewInjector(p FaultPlan) *Injector {
	if p.Zero() {
		return nil
	}
	return &Injector{plan: p, armedAt: time.Now()}
}

// Active reports whether faults are currently firing (armed, not
// cleared, and inside the For window).
func (in *Injector) Active() bool {
	if in == nil || in.cleared.Load() {
		return false
	}
	return in.plan.For == 0 || time.Since(in.armedAt) < in.plan.For
}

// Clear stops all injection immediately (chaos harnesses call it to
// test recovery).
func (in *Injector) Clear() {
	if in != nil {
		in.cleared.Store(true)
	}
}

// Plan returns the armed plan (zero for nil injectors).
func (in *Injector) Plan() FaultPlan {
	if in == nil {
		return FaultPlan{}
	}
	return in.plan
}

// Counters snapshots the fired-fault tallies.
func (in *Injector) Counters() FaultCounters {
	if in == nil {
		return FaultCounters{}
	}
	return FaultCounters{
		SimPanics:    in.simPanics.Load(),
		SimSlows:     in.simSlows.Load(),
		DiskFails:    in.diskFails.Load(),
		DiskCorrupts: in.diskCorrupts.Load(),
		QueueDrops:   in.queueDrops.Load(),
	}
}

// splitmix64 is the decision-stream PRF: well-mixed, allocation-free,
// and a pure function of its input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll draws the next decision word.
func (in *Injector) roll() uint64 {
	return splitmix64(uint64(in.plan.Seed)*0x9e3779b97f4a7c15 + in.seq.Add(1))
}

// hit reports whether the next decision fires at probability p.
func (in *Injector) hit(p float64) bool {
	if !in.Active() || p <= 0 {
		return false
	}
	return float64(in.roll()>>11)/(1<<53) < p
}

// DropQueueSlot reports whether this submission should be dropped as
// if the dispatch queue were full.
func (in *Injector) DropQueueSlot() bool {
	if in == nil {
		return false
	}
	if in.hit(in.plan.QueueDrop) {
		in.queueDrops.Add(1)
		return true
	}
	return false
}

// SimHook returns the runner.Options.FaultHook implementing the plan's
// simulation faults, or nil for a nil injector.
func (in *Injector) SimHook() func() {
	if in == nil {
		return nil
	}
	return func() {
		if in.hit(in.plan.SimSlow) {
			in.simSlows.Add(1)
			time.Sleep(in.plan.SimSlowDur)
		}
		if in.hit(in.plan.SimPanic) {
			in.simPanics.Add(1)
			panic("fault injection: simulated crash")
		}
	}
}

// faultDisk wraps the result store's results.Disk with the plan's disk
// faults: delays, I/O errors, and corrupted writes (the corruption
// lands on the real disk, so the store's checksum validation is
// exercised end to end).
type faultDisk struct {
	in   *Injector
	next results.Disk
}

func (f faultDisk) delay() {
	if d := f.in.plan.DiskDelay; d > 0 && f.in.Active() {
		time.Sleep(d)
	}
}

func (f faultDisk) Read(path string) ([]byte, error) {
	f.delay()
	if f.in.hit(f.in.plan.DiskFail) {
		f.in.diskFails.Add(1)
		return nil, fmt.Errorf("fault injection: disk read failed: %s", path)
	}
	return f.next.Read(path)
}

func (f faultDisk) Write(path string, data []byte) error {
	f.delay()
	if f.in.hit(f.in.plan.DiskFail) {
		f.in.diskFails.Add(1)
		return fmt.Errorf("fault injection: disk write failed: %s", path)
	}
	if f.in.hit(f.in.plan.DiskCorrupt) {
		f.in.diskCorrupts.Add(1)
		data = corruptBytes(data, f.in.roll())
	}
	return f.next.Write(path, data)
}

// corruptBytes damages data one of three ways, chosen by the decision
// word: torn write (truncation), single bit flip, or zero-length.
func corruptBytes(data []byte, r uint64) []byte {
	switch r % 3 {
	case 0: // torn write: keep a prefix
		if len(data) == 0 {
			return data
		}
		return data[:len(data)/2]
	case 1: // bit flip
		if len(data) == 0 {
			return data
		}
		b := make([]byte, len(data))
		copy(b, data)
		b[(r>>2)%uint64(len(b))] ^= 1 << ((r >> 40) % 8)
		return b
	default: // zero-length file
		return nil
	}
}
