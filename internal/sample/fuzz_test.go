package sample

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// FuzzDecodeCheckpoint: .psbckpt files cross process boundaries, so
// whatever bytes a torn write or bit rot leaves behind, Decode must
// answer with an error, never a panic. An accepted state must restore
// into a default-geometry executor or be refused with an error, and
// must survive a re-encode unchanged. Each input is also decoded with
// its checksum recomputed, so mutations reach the parser behind it.
//
// Every accepted state is also stored the ways the store can hold it,
// as a root and, when it has the seed state's shape, as a delta against
// the seed state, and read back through a cursor: the in-memory
// encoding must be exact for states no executor produces. The seeds
// include such states (see oddStates), and two whose deltas against
// the seed state take each way of coding changed indices: one line of
// the L2 changed, coded as one gap, and every element of every array
// changed, coded as bitmaps.
func FuzzDecodeCheckpoint(f *testing.F) {
	insts := healthStream(f, 5_000)
	boot := bootFor(insts)
	fn := boot()
	fn.AdvanceTo(3_000)
	seed := fn.Snapshot()
	k := testKey()
	data := Encode(k, seed)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(validLineStampZero(f, k, seed))
	for _, st := range append(oddStates(seed), changedStates(seed)...) {
		f.Add(Encode(k, st))
	}
	seedCk := newCkpt(nil, nil, seed, 0)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resum(data)} {
			st, err := Decode(in, k)
			if err != nil {
				continue
			}
			_ = boot().Restore(st) // may refuse, must not panic
			again, err := Decode(Encode(k, st), k)
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			if !reflect.DeepEqual(again, st) {
				t.Fatal("re-encoded checkpoint decodes to a different state")
			}

			e := new(entry)
			var c Cursor
			c.seek(e, newCkpt(nil, nil, st, 0))
			if !reflect.DeepEqual(&c.st, st) {
				t.Fatal("state stored as a root reads back different")
			}
			if sameShape(seed, st) {
				c.seek(e, newCkpt(seedCk, seed, st, uint64(len(st.Train))))
				if !reflect.DeepEqual(&c.st, st) {
					t.Fatal("state stored as a delta against the seed state reads back different")
				}
			}
		}
	})
}

// oddStates returns variants of st, a snapshot, that no executor
// produces but Decode accepts: stamps above the clock and 2^63 below
// it, stamp-0 lines that carry tags, all-ones tags, stamps, clocks, PCs
// and addresses, tags changed to 0, and empty and full train rings.
func oddStates(st *cpu.FunctionalState) []*cpu.FunctionalState {
	clone := func() *cpu.FunctionalState {
		c, err := Decode(Encode(testKey(), st), testKey())
		if err != nil {
			panic(err)
		}
		return c
	}
	odd := clone()
	for i := range odd.Mem.L2.Lines {
		l := &odd.Mem.L2.Lines[i]
		switch i % 5 {
		case 0:
			l.LastUse = odd.Mem.L2.Clock + uint64(i) + 1 // above the clock
		case 1:
			l.Tag, l.LastUse = uint64(i)<<6, 0 // invalid, with a tag
		case 2:
			l.Tag, l.LastUse = math.MaxUint64, math.MaxUint64
		case 3:
			l.Tag, l.LastUse = 0, odd.Mem.L2.Clock^1<<63 // the longest age
		}
	}
	odd.Mem.L1D.Clock = math.MaxUint64
	for i := range odd.Train {
		if i%2 == 0 {
			odd.Train[i] = cpu.TrainEvent{PC: math.MaxUint64, Addr: math.MaxUint64}
		}
	}

	empty := clone()
	empty.Train = empty.Train[:0]

	full := clone()
	full.Train = make([]cpu.TrainEvent, cpu.TrainRingCap)
	for i := range full.Train {
		full.Train[i] = cpu.TrainEvent{PC: uint64(i) << 60, Addr: math.MaxUint64 - uint64(i)*4}
	}
	return []*cpu.FunctionalState{odd, empty, full}
}

// changedStates returns two variants of st, a snapshot: one with a
// single L2 line changed, and one with every tag line, DTLB slot,
// gshare counter and BTB entry changed.
func changedStates(st *cpu.FunctionalState) []*cpu.FunctionalState {
	clone := func() *cpu.FunctionalState {
		c, err := Decode(Encode(testKey(), st), testKey())
		if err != nil {
			panic(err)
		}
		return c
	}
	one := clone()
	l := &one.Mem.L2.Lines[len(one.Mem.L2.Lines)/2+3]
	l.Tag, l.LastUse = l.Tag+1, one.Mem.L2.Clock

	all := clone()
	for _, c := range []*mem.CacheState{&all.Mem.L1D, &all.Mem.L1I, &all.Mem.L2} {
		for i := range c.Lines {
			c.Lines[i] = mem.CacheLineState{Tag: c.Lines[i].Tag ^ 1, LastUse: c.Clock - uint64(i%3)}
		}
	}
	tlb := &all.Mem.DTLB
	for i := range tlb.Pages {
		tlb.Pages[i], tlb.LastUse[i] = tlb.Pages[i]+1, tlb.LastUse[i]+1
	}
	for i := range all.BP.Counters {
		all.BP.Counters[i] ^= 1
	}
	for i := range all.BP.BTB {
		all.BP.BTB[i].Target++
	}
	return []*cpu.FunctionalState{one, all}
}

// FuzzCheckpointChain drives the store with a request sequence decoded
// from the fuzz input, over a 4K-instruction health stream: each byte
// pair picks one of two interleaved cursors, a position and whether to
// persist, and occasionally swaps in a fresh store that reloads what
// was persisted. Every returned state must equal a straight executor's
// snapshot at its position, and every delta chain must respect the
// depth bound. A small geometry keeps each state a few KB.
func FuzzCheckpointChain(f *testing.F) {
	insts := healthStream(f, 4_096)
	mc := mem.DefaultConfig()
	mc.L1D.SizeBytes, mc.L1I.SizeBytes, mc.L2.SizeBytes, mc.TLBEntries = 1<<10, 1<<10, 8<<10, 8
	gc := cpu.GshareConfig{HistoryBits: 6, TableBits: 6, BTBEntries: 16, BTBWays: 4, RASEntries: 4}
	k := Key{Workload: "health", Seed: 1, Geometry: GeometryDigest(mc, gc)}
	boot := func() *cpu.Functional { return cpu.NewFunctional(mc, gc, insts) }

	// Cursor 0 generates one long chain; cursor 1 then walks it again,
	// applying one delta per step.
	ascending := make([]byte, 0, 1024)
	for c := byte(0); c < 2; c++ {
		for p := 0; p < 256; p++ {
			ascending = append(ascending, c, byte(p))
		}
	}
	f.Add(ascending)
	f.Add([]byte{0, 200, 1, 10, 0, 100, 2, 150, 15, 120, 1, 90, 3, 255, 0, 0})
	f.Add([]byte{2, 40, 2, 80, 15, 0, 2, 120, 3, 60, 2, 100, 14, 30})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		dir := t.TempDir()
		s := new(Store)
		var cursors [2]Cursor
		ref := boot()
		var want cpu.FunctionalState
		for i := 0; i+1 < len(data); i += 2 {
			op, pos := data[i], uint64(data[i+1])*16
			if op&15 == 15 {
				checkChains(t, s)
				s = new(Store) // reload: later requests find what was persisted
			}
			d := ""
			if op&2 != 0 {
				d = dir
			}
			st, _, err := s.At(&cursors[op&1], k, pos, d, boot)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Pos() > pos {
				ref = boot()
			}
			ref.AdvanceTo(pos)
			ref.SnapshotInto(&want)
			if !reflect.DeepEqual(st, &want) {
				t.Fatalf("request %d: checkpoint at %d differs from a straight snapshot", i/2, pos)
			}
		}
		checkChains(t, s)
	})
}

// checkChains verifies every delta chain in s: each checkpoint's base
// is earlier, and it sits depth deltas, at most maxDepth, past a root.
func checkChains(t *testing.T, s *Store) {
	t.Helper()
	for k, e := range s.entries {
		for _, ck := range e.ckpts {
			n := 0
			for x := ck; x.base != nil; x = x.base {
				if x.base.pos >= x.pos {
					t.Fatalf("%s: checkpoint at %d has base at %d", k.Workload, x.pos, x.base.pos)
				}
				n++
			}
			if n != ck.depth || n > maxDepth {
				t.Fatalf("%s: checkpoint at %d sits %d deltas deep (recorded %d, bound %d)",
					k.Workload, ck.pos, n, ck.depth, maxDepth)
			}
		}
	}
}
