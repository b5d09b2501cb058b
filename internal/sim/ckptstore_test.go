package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// storeCase is one workload's checkpoint stream under the default
// sampled configuration: its store key, an executor factory, the
// checkpoint positions the default schedule requests, and a straight
// executor's snapshot at each of them.
type storeCase struct {
	key  sample.Key
	boot func() *cpu.Functional
	pos  []uint64
	want map[uint64]*cpu.FunctionalState
}

func newStoreCase(t *testing.T, w workload.Workload, cfg Config) storeCase {
	t.Helper()
	rep, err := trace.Shared().Source(TraceKey(w, cfg), TraceNeed(cfg), "",
		func() *vm.Machine { return w.Build(cfg.Seed) })
	if err != nil {
		t.Fatal(err)
	}
	c := storeCase{
		key: sample.Key{Workload: w.Name, Seed: cfg.Seed,
			Geometry: sample.GeometryDigest(cfg.Mem, cfg.CPU.Gshare)},
		boot: func() *cpu.Functional { return cpu.NewFunctionalStream(cfg.Mem, cfg.CPU.Gshare, rep.From(0)) },
		want: make(map[uint64]*cpu.FunctionalState),
	}
	var scratch sample.Store // the profile only fixes the schedule
	profile, _, err := scratch.Profile(c.key, cfg.MaxInsts, c.boot)
	if err != nil {
		t.Fatal(err)
	}
	period, length, warmup := cfg.sampleSpec()
	for _, iv := range sampleSchedule(profile, cfg.MaxInsts, period, length, warmup) {
		c.pos = append(c.pos, iv.ck)
	}
	c.pos = slices.Compact(c.pos) // the schedule is sorted
	f := c.boot()
	for _, p := range c.pos {
		f.AdvanceTo(p)
		c.want[p] = f.Snapshot()
	}
	return c
}

// request asks s for every position in order, checking each returned
// state against the straight executor's snapshot before the next
// request.
func (c storeCase) request(t *testing.T, s *sample.Store, order []uint64) {
	var cur sample.Cursor
	for _, p := range order {
		st, _, err := s.At(&cur, c.key, p, c.boot)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(st, c.want[p]) {
			t.Errorf("checkpoint at %d differs from a straight snapshot", p)
			return
		}
	}
}

// TestStoreMatchesStraightSnapshots is the checkpoint store's
// differential test: whatever order checkpoints are requested in, from
// one goroutine or four sharing a store, each must equal the snapshot
// a straight functional pass takes at the same position.
func TestStoreMatchesStraightSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every workload's checkpoints many times")
	}
	cfg := sampledConfig()
	cfg.MaxInsts = 200_000
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			c := newStoreCase(t, w, cfg)
			desc := slices.Clone(c.pos)
			slices.Reverse(desc)
			shuffled := slices.Clone(c.pos)
			rand.New(rand.NewSource(18)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for _, order := range [][]uint64{c.pos, desc, shuffled} {
				var s sample.Store
				c.request(t, &s, order)

				// Four goroutines share one store, each walking the
				// order from its own starting point.
				var shared sample.Store
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					rot := slices.Concat(order[g*len(order)/4:], order[:g*len(order)/4])
					wg.Add(1)
					go func() {
						defer wg.Done()
						c.request(t, &shared, rot)
					}()
				}
				wg.Wait()
			}
		})
	}
}
