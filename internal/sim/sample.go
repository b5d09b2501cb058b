package sim

import (
	"context"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/sample"
	"repro/internal/sbuf"
	"repro/internal/workload"
)

// SampleMode selects exact or sampled simulation.
type SampleMode int

const (
	// SampleOff runs every instruction through the detailed core —
	// the default, byte-identical to all prior behaviour.
	SampleOff SampleMode = iota
	// SampleOn interleaves detailed measurement intervals with
	// functional fast-forward (SMARTS-style systematic sampling):
	// every SamplePeriod instructions the run simulates SampleWarmup
	// unmeasured plus SampleLen measured instructions in detail,
	// resuming from a shared warm-state checkpoint, and fast-forwards
	// the rest functionally. Exact architectural behaviour, estimated
	// timing: Result.Sampled reports the IPC estimate and its
	// confidence interval.
	SampleOn
)

// String renders the mode the way the -sample command-line flags
// spell it.
func (m SampleMode) String() string {
	switch m {
	case SampleOff:
		return "off"
	case SampleOn:
		return "on"
	}
	return fmt.Sprintf("SampleMode(%d)", int(m))
}

// Default sampling parameters, applied when the corresponding Config
// field is zero. At the default 500K-instruction budget they yield 25
// sampled windows measuring 3K instructions each after a
// 3K-instruction detailed warm-up, plus the certainty ranges the miss
// profile flags — roughly 30% of the instructions simulated in
// detail, the rest fast-forwarded. Tuned against the full
// workload×scheme matrix to keep every cell's IPC within ±3% of the
// exact run at 500K instructions (the CI accuracy gate).
const (
	DefaultSamplePeriod = 20_000
	DefaultSampleLen    = 3_000
	DefaultSampleWarmup = 3_000
)

// sampleSpec returns the effective sampling parameters, applying the
// documented defaults for zero fields.
func (c Config) sampleSpec() (period, length, warmup uint64) {
	period, length, warmup = c.SamplePeriod, c.SampleLen, c.SampleWarmup
	if period == 0 {
		period = DefaultSamplePeriod
	}
	if length == 0 {
		length = DefaultSampleLen
	}
	if warmup == 0 {
		warmup = DefaultSampleWarmup
	}
	return period, length, warmup
}

// rewarm readies m for one measurement interval: the hierarchy and
// core return in place to the checkpoint's warm state, over src, and a
// fresh prefetcher from newPF is warmed by replaying the checkpoint's
// recent train events — the same (pc, addr) stream the detailed commit
// stage would have fed it. The result matches a machine built afresh
// from the checkpoint, without reallocating the tag arrays and core.
func (m *machine) rewarm(newPF func(sbuf.Fetcher) sbuf.Prefetcher, src cpu.Source, st *cpu.FunctionalState) error {
	if err := m.hier.Rewarm(st.Mem); err != nil {
		return &ConfigError{Field: "SampleMode", Err: err}
	}
	m.pf = newPF(m.hier)
	for _, e := range st.Train {
		m.pf.Train(e.PC, e.Addr)
	}
	m.cpu.Reset(m.pf, src)
	m.cpu.SetDeltaHistogram(m.hist)
	if err := m.cpu.SetBranchState(st.BP); err != nil {
		return &ConfigError{Field: "SampleMode", Err: err}
	}
	return nil
}

// runSampled is the sampled counterpart of RunChecked's tail: it walks
// the interval schedule, resumes a detailed machine from the shared
// checkpoint at each boundary, measures SampleLen instructions after a
// SampleWarmup detailed prefix, and aggregates the measured windows
// into a Result whose Sampled field carries the estimate. On error the
// Result covers the intervals measured before the abort.
func runSampled(ctx context.Context, w workload.Workload, v core.Variant, cfg Config, newPF func(sbuf.Fetcher) sbuf.Prefetcher) (Result, error) {
	period, length, warmup := cfg.sampleSpec()
	rep, err := recording(w, cfg)
	if err != nil {
		return Result{}, err
	}
	key := sample.Key{
		Workload: w.Name,
		Seed:     cfg.Seed,
		Geometry: sample.GeometryDigest(cfg.Mem, cfg.CPU.Gshare),
	}
	store := sample.Shared()
	cur := store.Cursor(key)
	defer store.Release(cur)
	// Every executor and every interval decodes the shared recording
	// through its own Replay.
	boot := func() *cpu.Functional { return cpu.NewFunctionalStream(cfg.Mem, cfg.CPU.Gshare, rep.From(0)) }

	// One detailed machine serves every interval of this run, rewarmed
	// in place at each boundary. It lives only as long as this call:
	// psbserved runs sampled cells concurrently, so it is never pooled
	// or shared.
	m := machine{hier: mem.New(cfg.Mem)}
	m.cpu = cpu.New(cfg.CPU, m.hier, nil, nil)

	var (
		agg                   cpu.Stats
		sbAgg                 sbuf.Stats
		l1dAgg, l1iAgg, l2Agg mem.CacheStats
		cpis                  []float64
		sampInsts, sampCycles uint64
		certInsts, certCycles uint64
		certRuns              int
		busyL1L2, busyMem     float64
		detailedCycles        uint64
		tlbAcc, tlbMiss       uint64
		warmupInsts           uint64
		ckHits, ckMisses      uint64
		ffInsts               uint64
		runErr                error
	)
	if cfg.CollectFig4 {
		m.hist = predict.NewDeltaHistogram(1<<16, blockShift(cfg.Mem.L1D.BlockBytes))
	}

	// The measurement schedule is derived from the workload's functional
	// miss profile, so every scheme requests the identical checkpoint
	// positions and shares them.
	profile, profWork, err := store.Profile(key, cfg.MaxInsts, boot)
	if err != nil {
		return Result{}, err
	}
	if profWork == 0 {
		ckHits++
	} else {
		ckMisses++
		ffInsts += profWork
	}
	sched := sampleSchedule(profile, cfg.MaxInsts, period, length, warmup)

	for _, iv := range sched {
		st, ai, err := store.At(cur, key, iv.ck, boot)
		if err != nil {
			runErr = err
			break
		}
		if ai.Hit {
			ckHits++
		} else {
			ckMisses++
		}
		ffInsts += ai.FunctionalInsts
		if err := m.rewarm(newPF, rep.From(iv.ck), st); err != nil {
			runErr = err
			break
		}
		target := iv.warm + iv.measure
		var (
			s0              cpu.Stats
			sb0             sbuf.Stats
			l1d0, l1i0, l20 mem.CacheStats
			tlbA0, tlbM0    uint64
		)
		if iv.warm > 0 {
			if _, err := m.cpu.Advance(ctx, target, iv.warm); err != nil {
				runErr = err
				break
			}
			s0 = m.cpu.Stats()
			sb0 = m.pf.Stats()
			l1d0, l1i0, l20 = m.hier.L1D.Stats(), m.hier.L1I.Stats(), m.hier.L2.Stats()
			tlbA0, tlbM0 = m.hier.DTLB.Accesses, m.hier.DTLB.Misses
		}
		if _, err := m.cpu.Advance(ctx, target, 0); err != nil {
			runErr = err
			break
		}
		s1 := m.cpu.Stats()
		d := addDelta(cpu.Stats{}, s1, s0)
		if d.Committed == 0 {
			// The recording ran dry inside this interval's warm-up
			// (only possible in degenerate configurations); there is
			// nothing to measure here or in any later interval.
			break
		}
		agg = addDelta(agg, s1, s0)
		sbAgg = addDelta(sbAgg, m.pf.Stats(), sb0)
		l1dAgg = addDelta(l1dAgg, m.hier.L1D.Stats(), l1d0)
		l1iAgg = addDelta(l1iAgg, m.hier.L1I.Stats(), l1i0)
		l2Agg = addDelta(l2Agg, m.hier.L2.Stats(), l20)
		tlbAcc += m.hier.DTLB.Accesses - tlbA0
		tlbMiss += m.hier.DTLB.Misses - tlbM0
		if iv.certainty {
			certRuns++
			certInsts += d.Committed
			certCycles += d.Cycles
		} else {
			cpis = append(cpis, float64(d.Cycles)/float64(d.Committed))
			sampInsts += d.Committed
			sampCycles += d.Cycles
		}
		warmupInsts += s0.Committed
		// Bus busy fractions cannot be diffed at the warm-up boundary,
		// so account whole-interval busy cycles (warm-up included) and
		// divide by total detailed cycles at the end.
		busyL1L2 += m.hier.L1L2.Utilization(s1.Cycles) * float64(s1.Cycles)
		busyMem += m.hier.MemBus.Utilization(s1.Cycles) * float64(s1.Cycles)
		detailedCycles += s1.Cycles
	}

	est := sample.NewEstimate(period, length, warmup, cpis,
		sampInsts, sampCycles, certInsts, certCycles, cfg.MaxInsts)
	est.CertaintyRuns = certRuns
	est.WarmupInsts = warmupInsts
	est.FunctionalInsts = ffInsts
	est.CheckpointHits = ckHits
	est.CheckpointMisses = ckMisses
	r := Result{
		Workload:    w.Name,
		Variant:     v,
		CPU:         agg,
		SB:          sbAgg,
		L1D:         l1dAgg,
		L1I:         l1iAgg,
		L2:          l2Agg,
		TLBMissRate: ratio(tlbMiss, tlbAcc),
		Hist:        m.hist,
		Sampled:     &est,
	}
	if detailedCycles > 0 {
		r.L1L2Util = busyL1L2 / float64(detailedCycles)
		r.MemBusUtil = busyMem / float64(detailedCycles)
	}
	return r, runErr
}

// interval is one detailed-simulation episode of a sampled run: resume
// from the checkpoint at ck, run warm unmeasured instructions, then
// measure the next measure instructions.
type interval struct {
	ck        uint64
	warm      uint64
	measure   uint64
	certainty bool
}

// Certainty-stratum thresholds: a profile bucket is an outlier when
// its L2 miss count is at least spikeFactor times the mean bucket
// count and at least spikeFloor misses (the floor keeps near-miss-free
// workloads from flagging noise). Outlier runs separated by at most
// spikeGap buckets merge into one certainty range — burst regions are
// ragged, and measuring across a small interior gap is cheaper than a
// separate warm-up (and keeps the gap's slow instructions from being
// silently under-sampled).
const (
	spikeFactor = 4
	spikeFloor  = 16
	spikeGap    = 4
)

// sampleSchedule derives the run's measurement schedule from the
// functional miss profile. Buckets whose miss count marks them as
// burst outliers form certainty runs, measured in detail exactly —
// rare bursts (cold-start, phase-transition miss storms) concentrate
// so much cycle mass that time-sampling mis-weights them badly at
// these run lengths. The remaining instructions are covered by one
// measurement window per SamplePeriod stratum at a golden-ratio
// rotated offset; windows that would overlap a certainty run are
// dropped (those instructions are already measured). The schedule is
// sorted by checkpoint position so the store's functional executor
// advances strictly forward.
func sampleSchedule(profile []uint32, maxInsts, period, length, warmup uint64) []interval {
	// Certainty runs: merge adjacent outlier buckets.
	var total uint64
	for _, c := range profile {
		total += uint64(c)
	}
	var runs [][2]uint64
	if len(profile) > 0 {
		threshold := spikeFactor * float64(total) / float64(len(profile))
		if threshold < spikeFloor {
			threshold = spikeFloor
		}
		for b := 0; b < len(profile); b++ {
			if float64(profile[b]) < threshold {
				continue
			}
			e := b
			for n := e + 1; n < len(profile) && n <= e+spikeGap; n++ {
				if float64(profile[n]) >= threshold {
					e = n
				}
			}
			s, end := uint64(b)<<sample.ProfileShift, uint64(e+1)<<sample.ProfileShift
			if end > maxInsts {
				end = maxInsts
			}
			if s < end {
				runs = append(runs, [2]uint64{s, end})
			}
			b = e
		}
	}

	var sched []interval
	for _, r := range runs {
		warm := warmup
		if r[0] < warm {
			warm = r[0] // cold start is the true state at position 0
		}
		sched = append(sched, interval{ck: r[0] - warm, warm: warm, measure: r[1] - r[0], certainty: true})
	}
	for base := uint64(0); base < maxInsts; base += period {
		ws := base + sampleJitter(base/period, period-warmup-length)
		ms, me := ws+warmup, ws+warmup+length
		overlaps := false
		for _, r := range runs {
			if ms < r[1] && r[0] < me {
				overlaps = true
				break
			}
		}
		if overlaps {
			continue
		}
		sched = append(sched, interval{ck: ws, warm: warmup, measure: length})
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].ck < sched[j].ck })
	return sched
}

// sampleJitter places interval i's measurement window at a
// low-discrepancy offset within its period stratum (Weyl sequence on
// the golden ratio, in fixed-point). A fixed offset per period aliases
// badly with program phase behaviour — a loop whose wavelength divides
// the period puts every window at the same phase, and the estimate
// inherits that phase's CPI instead of the program's. Rotating the
// offset by the golden ratio samples all phases near-uniformly while
// staying deterministic, so every scheme still requests (and shares)
// identical checkpoint positions.
func sampleJitter(i, span uint64) uint64 {
	if span == 0 {
		return 0
	}
	const golden32 = 2654435769 // 2^32 / golden ratio (Knuth)
	frac := uint64(uint32(i * golden32))
	return frac * span >> 32
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// addDelta returns acc plus (now - before), field by field. Every field
// of T must be a uint64 counter, as in cpu.Stats, sbuf.Stats and
// mem.CacheStats (TestAddDeltaCarriesEveryCounter checks all three),
// so a counter added to one of them reaches sampled results unlisted.
// Reflection costs nothing measurable here: a sampled cell calls this
// a few times per measurement interval.
func addDelta[T any](acc, now, before T) T {
	a := reflect.ValueOf(&acc).Elem()
	n, b := reflect.ValueOf(now), reflect.ValueOf(before)
	for i := 0; i < a.NumField(); i++ {
		f := a.Field(i)
		f.SetUint(f.Uint() + n.Field(i).Uint() - b.Field(i).Uint())
	}
	return acc
}
