package sample

import "math"

// Estimate is the statistical summary of one sampled run: per-interval
// CPI samples reduced to a point IPC estimate and a coefficient-of-
// variation confidence interval, plus the work accounting that shows
// what sampling saved. It is attached to sim.Result (omitted from the
// JSON encoding entirely for exact runs, preserving their byte
// identity).
type Estimate struct {
	// Sampling parameters the run used (after defaulting).
	Period uint64 // instructions between interval starts
	Len    uint64 // measured instructions per interval
	Warmup uint64 // detailed-but-unmeasured prefix per interval

	// Intervals is the number of measurement intervals taken.
	Intervals int

	// IPC is the point estimate: total measured instructions over
	// total measured cycles (a ratio of sums, consistent with the
	// aggregated Stats carried alongside).
	IPC float64

	// CPIMean and CPIStdDev summarize the per-interval CPI samples
	// (sample standard deviation, n-1); CoV is their ratio.
	CPIMean   float64
	CPIStdDev float64
	CoV       float64

	// CIRelPct is the 95% confidence half-width (1.96·s/√n) as a
	// percentage of CPIMean. IPCLow and IPCHigh invert the CPI
	// interval bounds; IPCHigh is 0 when the interval is too wide to
	// bound (mean − half-width ≤ 0, only possible with degenerate
	// sample counts).
	CIRelPct float64
	IPCLow   float64
	IPCHigh  float64

	// Certainty stratum: instruction ranges whose functional L1D miss
	// profile marked them as burst outliers are measured in detail
	// deterministically rather than sampled — rare extreme bursts
	// (phase-transition miss storms, cold-start) carry far too much
	// cycle mass for time-sampling to weight correctly at these run
	// lengths. CertaintyRuns counts the ranges; CertaintyInsts and
	// CertaintyCycles their exact measured totals, which the IPC
	// estimate combines with the sampled CPI of the remainder.
	CertaintyRuns   int
	CertaintyInsts  uint64
	CertaintyCycles uint64

	// TotalInsts is the instruction budget the estimate extrapolates
	// to (the run's MaxInsts).
	TotalInsts uint64

	// Work accounting: instructions simulated in detail and measured
	// in sampled windows, simulated in detail as interval warm-up, and
	// fast-forwarded functionally on behalf of this run's checkpoints
	// and miss profile (0 when every checkpoint was already cached).
	MeasuredInsts   uint64
	MeasuredCycles  uint64
	WarmupInsts     uint64
	FunctionalInsts uint64

	// Checkpoint traffic attributed to this run.
	//
	// FunctionalInsts, CheckpointHits and CheckpointMisses record what
	// the process's checkpoint store already held when the run asked,
	// so they depend on which runs came before or ran beside it: two
	// cells run in parallel, or a psbserved node that has served other
	// sampled cells, can give one fingerprint different values here.
	// Every other field is a function of the run's configuration alone.
	CheckpointHits   uint64
	CheckpointMisses uint64
}

// NewEstimate reduces per-interval CPI samples plus the certainty
// stratum to an Estimate. insts and cycles are the sampled-window
// sums behind the cpis; certInsts and certCycles the exact totals of
// the certainty ranges; totalInsts the budget to extrapolate to.
//
// The point estimate applies the sampled CPI (a ratio of sums) to the
// unmeasured remainder and adds the certainty cycles exactly:
//
//	cycles ≈ certCycles + (cycles/insts) · (totalInsts − certInsts)
//	IPC    = totalInsts / cycles
//
// The confidence bounds perturb only the sampled CPI (the certainty
// part is exact), using the per-interval mean's 95% half-width as a
// relative factor. With totalInsts zero (statistics-only callers) the
// estimate falls back to the plain measured ratio.
func NewEstimate(period, length, warmup uint64, cpis []float64, insts, cycles, certInsts, certCycles, totalInsts uint64) Estimate {
	e := Estimate{
		Period:          period,
		Len:             length,
		Warmup:          warmup,
		Intervals:       len(cpis),
		CertaintyInsts:  certInsts,
		CertaintyCycles: certCycles,
		TotalInsts:      totalInsts,
		MeasuredInsts:   insts,
		MeasuredCycles:  cycles,
	}
	n := len(cpis)
	var mean, half float64
	if n > 0 {
		var sum float64
		for _, v := range cpis {
			sum += v
		}
		mean = sum / float64(n)
		e.CPIMean = mean
		if n >= 2 {
			var ss float64
			for _, v := range cpis {
				d := v - mean
				ss += d * d
			}
			e.CPIStdDev = math.Sqrt(ss / float64(n-1))
		}
		if mean > 0 {
			e.CoV = e.CPIStdDev / mean
		}
		half = 1.96 * e.CPIStdDev / math.Sqrt(float64(n))
		if mean > 0 {
			e.CIRelPct = 100 * half / mean
		}
	}

	var sampledCPI float64
	if insts > 0 {
		sampledCPI = float64(cycles) / float64(insts)
	}
	rel := 0.0
	if mean > 0 {
		rel = half / mean
	}
	if totalInsts == 0 {
		// Statistics-only reduction over the measured windows.
		if cycles > 0 {
			e.IPC = float64(insts) / float64(cycles)
		}
		if mean+half > 0 {
			e.IPCLow = 1 / (mean + half)
		}
		if mean-half > 0 {
			e.IPCHigh = 1 / (mean - half)
		}
		return e
	}

	rest := float64(0)
	if totalInsts > certInsts {
		rest = float64(totalInsts - certInsts)
	}
	at := func(cpi float64) float64 {
		total := float64(certCycles) + cpi*rest
		if total <= 0 {
			return 0
		}
		return float64(totalInsts) / total
	}
	if rest > 0 && sampledCPI == 0 {
		// Nothing sampled (degenerate: everything fell in certainty
		// ranges that do not quite cover the budget): report the
		// certainty-only ratio without extrapolating.
		if certCycles > 0 {
			e.IPC = float64(certInsts) / float64(certCycles)
		}
		return e
	}
	e.IPC = at(sampledCPI)
	e.IPCLow = at(sampledCPI * (1 + rel))
	if rel < 1 {
		e.IPCHigh = at(sampledCPI * (1 - rel))
	}
	return e
}
