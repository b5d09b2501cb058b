package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// goldenConfigs are machines the default configuration never reaches,
// chosen to stress the issue stage's bookkeeping: memory latencies far
// beyond the 120-cycle default (wake-ups many hundreds of cycles out,
// clock jumps thousands of cycles long), ROB sizes whose bitmasks are
// one word, a partial word and four words, and the no-disambiguation
// policy.
var goldenConfigs = []struct {
	name string
	set  func(*Config)
}{
	{"mem1000", func(c *Config) { c.Mem.MemLatency = 1000 }},
	{"mem5000", func(c *Config) { c.Mem.MemLatency = 5000 }},
	{"rob32", func(c *Config) { c.CPU.ROBSize, c.CPU.LSQSize = 32, 16 }},
	{"rob96", func(c *Config) { c.CPU.ROBSize, c.CPU.LSQSize = 96, 48 }},
	{"rob200", func(c *Config) { c.CPU.ROBSize, c.CPU.LSQSize = 200, 100 }},
	{"disnone", func(c *Config) { c.CPU.Disambiguation = cpu.DisNone }},
}

// goldenDigests pin the result bytes of every golden configuration in
// both cycle modes: sha256 over the JSON of each workload's Result, in
// workload order, with the scheme rotating across workloads. Event-mode
// digests include the skip telemetry (SkippedCycles, Jumps), so a
// change to where the event loop lands also shows.
var goldenDigests = map[string]string{
	"mem1000/event":    "4c38453935a00c8d59f2ef989894c5b9672fa9dd6d3917f0c7b119ed13b55d81",
	"mem1000/accurate": "38f272bc937966abf087a71d917bd638388ddb22289abf214e2d2c0201e60de0",
	"mem5000/event":    "c95979600e5368fcd4ed1462b93e1f0aab78dbf6ec545558456f75473be158c5",
	"mem5000/accurate": "eb9e7d211f45fd00c6f926e3f9b12c9550e7e12e38b8d23ff6fbdfaf179e1232",
	"rob32/event":      "5bc5903c150b20184417e055e4f6c28b217c5dbd598b75a11d80473af223ed09",
	"rob32/accurate":   "d774bca3dab3f948577ee018e00a36b40feb9a31a5008350e85221186f569d20",
	"rob96/event":      "97d557265a7552821dd3a7d5af42a7db4741a02d786138ecf28d4bee11ca209d",
	"rob96/accurate":   "b85bb11efa5b234814af10e5b7a01e0af6cc98110535a8d74b519770683d76a5",
	"rob200/event":     "c4d15794c3b2951861b07be7b34d08bc1e309b5dfe80187add39c77a7746f890",
	"rob200/accurate":  "76e3bbb8758fac4a7c69a9d567eb69b6e09fa7b8563b11785753f04869231764",
	"disnone/event":    "0c917178101af1e06a6f99e64d98ce1ea96f71f928c477ffa6a9c1df117460ad",
	"disnone/accurate": "2a9df033b1570ce16d84a2bddadac8481d5690b53dcbcbae6735a84c22f9fad2",
}

// TestGoldenDigests holds the detailed core to results captured before
// its issue-stage and disambiguation fast paths existed. Unlike
// TestCycleModeDifferential, which compares two clock modes of the same
// code, it catches a bookkeeping error both modes share.
func TestGoldenDigests(t *testing.T) {
	variants := core.Variants()
	for _, gc := range goldenConfigs {
		for _, mode := range []cpu.CycleMode{cpu.CycleModeEvent, cpu.CycleModeAccurate} {
			key := gc.name + "/" + mode.String()
			t.Run(key, func(t *testing.T) {
				cfg := Default()
				cfg.MaxInsts = 40_000
				cfg.TraceMode = TraceMemory
				cfg.CPU.CycleMode = mode
				gc.set(&cfg)
				h := sha256.New()
				for i, w := range workload.All() {
					v := variants[i%len(variants)]
					res, err := RunChecked(context.Background(), w, v, cfg)
					if err != nil {
						t.Fatalf("%s/%s: %v", w.Name, v, err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
					t.Logf("%s/%s: IPC %.4f, %d cycles, %d jumps", w.Name, v,
						res.IPC(), res.CPU.Cycles, res.CPU.Jumps)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigests[key] {
					t.Errorf("digest %s, want %s", got, goldenDigests[key])
				}
			})
		}
	}
}
