package sim

// FuzzConfigValidate checks the validate-then-construct contract at
// the whole-machine level: any configuration Validate accepts must
// build a machine (memory hierarchy, prefetcher, core) without
// panicking. Fuzzed size fields are folded into bounded ranges so
// accepted configs stay cheap to build; the ranges still cross every
// validity boundary (zero, negative, non-power-of-two, non-divisible).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func FuzzConfigValidate(f *testing.F) {
	f.Add(32<<10, 4, 32, 128, 64, 8, 12, 256, 4, 2048, 16, 8, 4)
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	f.Add(3000, 3, 24, -1, 7, 100, 40, 10, 4, 1000, 70, 1, -3)
	f.Fuzz(func(t *testing.T,
		l1Size, l1Ways, l1Block, rob, lsq, fetch, gshareBits,
		strideEntries, strideWays, markovEntries, deltaBits,
		numBuffers, entriesPerBuffer int) {

		cfg := Default()
		cfg.MaxInsts = 1 // Validate needs > 0; the machine is built, not run
		cfg.Mem.L1D.SizeBytes = bound(l1Size, 1<<22)
		cfg.Mem.L1D.Ways = bound(l1Ways, 64)
		cfg.Mem.L1D.BlockBytes = bound(l1Block, 1<<10)
		cfg.CPU.ROBSize = bound(rob, 1<<12)
		cfg.CPU.LSQSize = bound(lsq, 1<<12)
		cfg.CPU.FetchWidth = bound(fetch, 64)
		cfg.CPU.Gshare.TableBits = bound(gshareBits, 32)
		cfg.Opts.SFM.StrideEntries = bound(strideEntries, 1<<12)
		cfg.Opts.SFM.StrideWays = bound(strideWays, 64)
		cfg.Opts.SFM.MarkovEntries = bound(markovEntries, 1<<14)
		cfg.Opts.SFM.DeltaBits = bound(deltaBits, 80)
		cfg.Opts.Buffers.NumBuffers = bound(numBuffers, 64)
		cfg.Opts.Buffers.EntriesPerBuffer = bound(entriesPerBuffer, 64)

		if cfg.Validate() != nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("validated config panicked during build: %v\nconfig: %+v", r, cfg)
			}
		}()
		build(workload.All()[0], cfg, cfg.Scheme(core.PSBConfPriority).Build)
	})
}

// bound folds a fuzzed int into (-limit, limit), keeping its sign so
// negative and zero inputs still reach the validators.
func bound(v, limit int) int {
	if v < 0 {
		return -((-v) % limit)
	}
	return v % limit
}
