// Package core is the repository's primary contribution: Predictor-
// Directed Stream Buffers (PSB), the prefetcher of Sherwood, Sair &
// Calder (MICRO-33, 2000).
//
// A PSB is a bank of stream buffers whose prefetch stream is generated
// by an address predictor — here the Stride-Filtered Markov (SFM)
// predictor — instead of a fixed per-allocation stride. Each buffer
// carries private prediction state (load PC, last predicted address,
// stride, confidence); a single shared prediction port re-indexes the
// predictor each cycle to extend one buffer's stream; allocation and
// scheduling may be guided by confidence counters.
//
// The package exposes the paper's five evaluated configurations as
// Variants, resolves each into a Scheme (the whole configuration its
// prefetcher is built from) and builds prefetchers from Schemes.
package core

import (
	"fmt"
	"strings"

	"repro/internal/demand"
	"repro/internal/predict"
	"repro/internal/sbuf"
)

// Variant names a prefetcher configuration from the paper's
// evaluation (§6).
type Variant int

const (
	// None disables prefetching (the baseline machine of Table 2).
	None Variant = iota
	// Sequential is Jouppi's original next-block stream buffer.
	Sequential
	// PCStride is the best prior approach: Farkas et al.'s PC-indexed
	// stride stream buffers with a two-miss allocation filter.
	PCStride
	// PSB2MissRR is a predictor-directed stream buffer with the
	// two-miss allocation filter and round-robin scheduling.
	PSB2MissRR
	// PSB2MissPriority uses the two-miss filter with priority-counter
	// scheduling.
	PSB2MissPriority
	// PSBConfRR uses confidence-guided allocation with round-robin
	// scheduling.
	PSBConfRR
	// PSBConfPriority is the paper's best configuration: confidence
	// allocation and priority scheduling.
	PSBConfPriority

	// NextLine is Smith's demand-triggered next-line prefetcher
	// (prior work, §3.2), provided as an additional comparator.
	NextLine
	// MarkovPrefetch is the Joseph & Grunwald demand-based Markov
	// prefetcher with accuracy adaptivity (prior work, §3.2).
	MarkovPrefetch
	// MinDeltaStride directs stream buffers with Palacharla & Kessler's
	// address-indexed minimum-delta stride detection (prior work,
	// §3.3.2) — the scheme the paper found uniformly outperformed by
	// PC-stride.
	MinDeltaStride

	numVariants
)

var variantNames = [numVariants]string{
	None:             "Base",
	Sequential:       "Sequential",
	PCStride:         "PC-stride",
	PSB2MissRR:       "2Miss-RR",
	PSB2MissPriority: "2Miss-Priority",
	PSBConfRR:        "ConfAlloc-RR",
	PSBConfPriority:  "ConfAlloc-Priority",
	NextLine:         "NextLine",
	MarkovPrefetch:   "MarkovPF",
	MinDeltaStride:   "MinDelta",
}

// String returns the paper's name for the configuration.
func (v Variant) String() string {
	if v >= 0 && int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Variants lists every configuration, in the paper's presentation
// order, followed by the prior-work comparators.
func Variants() []Variant {
	return []Variant{None, Sequential, PCStride,
		PSB2MissRR, PSB2MissPriority, PSBConfRR, PSBConfPriority,
		NextLine, MarkovPrefetch, MinDeltaStride}
}

// PaperVariants lists the five prefetching schemes of Figures 5-9
// (PC-stride and the four PSB policy combinations).
func PaperVariants() []Variant {
	return []Variant{PCStride, PSB2MissRR, PSB2MissPriority, PSBConfRR, PSBConfPriority}
}

// Known reports whether v names one of the defined configurations —
// the precondition for New/NewWithOptions not panicking.
func (v Variant) Known() bool { return v >= 0 && v < numVariants }

// VariantByName resolves a configuration by its String name,
// case-insensitively. It is the inverse of String for every Known
// variant, shared by the command-line flags and the serving layer's
// request decoder.
func VariantByName(name string) (Variant, error) {
	for _, v := range Variants() {
		if strings.EqualFold(v.String(), name) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// Options bundles the tunables of a PSB build.
type Options struct {
	Buffers sbuf.Config
	SFM     predict.SFMConfig
}

// DefaultOptions returns the paper's parameters (8 buffers x 4
// entries; 256-entry stride table; 2K-entry 16-bit differential
// Markov table).
func DefaultOptions() Options {
	return Options{Buffers: sbuf.DefaultConfig(), SFM: predict.DefaultSFMConfig()}
}

// Predictor names what generates a scheme's prefetch addresses: an
// engine's address predictor or, for PredNextLine and PredMarkov, a
// demand-triggered prefetcher with no engine.
type Predictor int

const (
	PredNone       Predictor = iota // no prefetching (sbuf.Null)
	PredSequential                  // next-block streams (Jouppi)
	PredPCStride                    // PC-indexed strides (Farkas et al.)
	PredSFM                         // stride-filtered Markov, the paper's predictor
	PredMinDelta                    // minimum-delta strides (Palacharla & Kessler)
	PredMarkovOnly                  // SFM's Markov table alone (no Variant; the predictor shootout)
	PredCorrelated                  // two-level correlated addresses (no Variant; the shootout)
	PredNextLine                    // next-line prefetching on demand misses (Smith)
	PredMarkov                      // demand Markov prefetching (Joseph & Grunwald)
)

// Scheme is a resolved prefetcher configuration: the predictor and
// every option its prefetcher is built from. A study of one design
// choice edits a resolved Scheme; Build constructs exactly what it says.
type Scheme struct {
	Predictor Predictor
	Options
}

// predictors is the predictor Resolve gives each variant.
var predictors = [numVariants]Predictor{None: PredNone, Sequential: PredSequential,
	PCStride: PredPCStride, PSB2MissRR: PredSFM, PSB2MissPriority: PredSFM, PSBConfRR: PredSFM,
	PSBConfPriority: PredSFM, NextLine: PredNextLine, MarkovPrefetch: PredMarkov, MinDeltaStride: PredMinDelta}

// Resolve returns variant v's scheme under opts: its predictor and,
// for stream-buffer variants, its allocation and scheduling policies,
// which are applied nowhere else. It panics on an unknown variant.
func Resolve(v Variant, opts Options) Scheme {
	if !v.Known() {
		panic(fmt.Sprintf("core: unknown variant %d", int(v)))
	}
	s := Scheme{predictors[v], opts}
	b := &s.Buffers
	switch v {
	case Sequential:
		b.Alloc, b.Sched = sbuf.AllocAlways, sbuf.SchedRoundRobin
	case PCStride, MinDeltaStride, PSB2MissRR:
		b.Alloc, b.Sched = sbuf.AllocTwoMiss, sbuf.SchedRoundRobin
	case PSB2MissPriority:
		b.Alloc, b.Sched = sbuf.AllocTwoMiss, sbuf.SchedPriority
	case PSBConfRR:
		b.Alloc, b.Sched = sbuf.AllocConfidence, sbuf.SchedRoundRobin
	case PSBConfPriority:
		b.Alloc, b.Sched = sbuf.AllocConfidence, sbuf.SchedPriority
	}
	return s
}

// Build constructs the prefetcher s describes, issuing prefetches
// through fetch. It applies no policy of its own: an engine runs
// s.Buffers exactly as given.
func (s Scheme) Build(fetch sbuf.Fetcher) sbuf.Prefetcher {
	b := s.Buffers
	switch s.Predictor {
	case PredNone:
		return sbuf.Null{}
	case PredSequential:
		return sbuf.NewEngine(b, predict.NewSequential(b.BlockBytes), fetch)
	case PredPCStride:
		return sbuf.NewEngine(b, predict.NewPCStride(s.SFM), fetch)
	case PredSFM:
		return sbuf.NewEngine(b, predict.NewSFM(s.SFM), fetch)
	case PredMinDelta:
		mdc := predict.DefaultMinDeltaConfig()
		mdc.BlockBytes = b.BlockBytes
		return sbuf.NewEngine(b, predict.NewMinDelta(mdc), fetch)
	case PredMarkovOnly:
		return sbuf.NewEngine(b, predict.NewMarkovOnly(s.SFM), fetch)
	case PredCorrelated:
		cc := predict.DefaultCorrelatedConfig()
		cc.BlockShift = s.SFM.BlockShift
		return sbuf.NewEngine(b, predict.NewCorrelated(cc), fetch)
	case PredNextLine:
		return demand.NewNLP(b.BlockBytes, b.NumBuffers*b.EntriesPerBuffer, fetch)
	case PredMarkov:
		mc := demand.DefaultMarkovConfig()
		mc.BlockBytes = b.BlockBytes
		mc.TableEntries = s.SFM.MarkovEntries
		mc.BufEntries = b.NumBuffers * b.EntriesPerBuffer
		return demand.NewMarkov(mc, fetch)
	}
	panic(fmt.Sprintf("core: unknown predictor %d", int(s.Predictor)))
}

// New builds the prefetcher for a paper variant with default options,
// issuing prefetches through fetch.
func New(v Variant, fetch sbuf.Fetcher) sbuf.Prefetcher {
	return NewWithOptions(v, DefaultOptions(), fetch)
}

// NewWithOptions builds the prefetcher for a paper variant with
// explicit options: Resolve, then Build.
func NewWithOptions(v Variant, opts Options, fetch sbuf.Fetcher) sbuf.Prefetcher {
	return Resolve(v, opts).Build(fetch)
}

// NewCustom builds a predictor-directed stream buffer around any
// address predictor, the paper's "any address predictor can be used to
// guide the predicted prefetch stream" claim. Like Build, it runs cfg
// exactly as given.
func NewCustom(pred predict.Predictor, cfg sbuf.Config, fetch sbuf.Fetcher) *sbuf.Engine {
	return sbuf.NewEngine(cfg, pred, fetch)
}
