package sample

import (
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
func FuzzDecodeCheckpoint(f *testing.F) {
	insts := healthStream(f, 5_000)
	boot := bootFor(insts)
	fn := boot()
	fn.AdvanceTo(3_000)
	st := fn.Snapshot()
	k := testKey()
	data := Encode(k, st)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(validLineStampZero(f, k, st))

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
		}
	})
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
// is earlier, and it sits depth deltas, at most maxDepth, past a whole
// checkpoint.
func checkChains(t *testing.T, s *Store) {
	t.Helper()
	for k, e := range s.entries {
		for _, ck := range e.ckpts {
			n := 0
			for x := ck; x.whole == nil; x = x.base {
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
