package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sbuf"
	"repro/internal/vm"
)

// conflictStream builds a stream whose loads and stores crowd a few
// small address windows: unaligned accesses of 0, 1, 2, 4 and 8 bytes
// (so ranges span granule boundaries, are empty, or are a single
// byte), windows exactly 2 KiB apart (the same granule-count bucket),
// and periodic loads of fresh cache lines that miss and hold the ROB
// head so the store ring fills and drains through commit.
func conflictStream(n int, seed int64) []vm.DynInst {
	r := rand.New(rand.NewSource(seed))
	windows := []uint64{0x10000, 0x10000 + 2048, 0x10000 + 4096, 0x30000 - 4}
	sizes := []uint8{0, 1, 2, 4, 8}
	insts := make([]vm.DynInst, n)
	for i := range insts {
		d := vm.DynInst{PC: 0x1000 + uint64(i)*isa.InstBytes}
		d.NextPC = d.PC + isa.InstBytes
		addr := windows[r.Intn(len(windows))] + uint64(r.Intn(24))
		switch k := r.Intn(20); {
		case k == 0:
			d.Op, d.Rd, d.Rs1 = isa.LD, isa.R(1+r.Intn(8)), isa.R0
			d.EffAddr, d.MemSize = 0x100000+uint64(i)*4096, 8
		case k < 9:
			d.Op, d.Rd, d.Rs1 = isa.LD, isa.R(1+r.Intn(8)), isa.R(1+r.Intn(8))
			d.EffAddr, d.MemSize = addr, sizes[r.Intn(len(sizes))]
		case k < 15:
			d.Op, d.Rd = isa.ST, isa.RegNone
			d.Rs1, d.Rs2 = isa.R(1+r.Intn(8)), isa.R(1+r.Intn(8))
			d.EffAddr, d.MemSize = addr, sizes[r.Intn(len(sizes))]
		default:
			d.Op, d.Rd = isa.ADD, isa.R(1+r.Intn(8))
			d.Rs1, d.Rs2 = isa.R(1+r.Intn(8)), isa.R(1+r.Intn(8))
		}
		insts[i] = d
	}
	return insts
}

// ringConflict is the reference disambiguation scan: the youngest
// store in the ring older than the load in slot idx whose byte range
// overlaps the load's, read from the stores' own instruction records,
// or noDep32.
func ringConflict(c *CPU, idx int) int32 {
	ld := &c.robD[idx]
	lo, hi := ld.EffAddr, ld.EffAddr+uint64(ld.MemSize)
	for i := c.storeCount - 1; i >= 0; i-- {
		s := c.storeQ[(c.storeHead+i)%len(c.storeQ)]
		if c.robSeq[s] > c.robSeq[idx] {
			continue // dispatched after the load
		}
		st := &c.robD[s]
		sLo, sHi := st.EffAddr, st.EffAddr+uint64(st.MemSize)
		if lo < sHi && sLo < hi {
			return s
		}
	}
	return noDep32
}

// TestDispatchConflictMatchesRingScan checks every load's dispatch-time
// forwarding source (robConflict, robConflictSeq) against a brute-force
// scan of the in-flight stores, while the core runs the cycle loop so
// stores enter the ring at dispatch and leave it at commit.
func TestDispatchConflictMatchesRingScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		insts := conflictStream(30_000, seed)
		c := New(DefaultConfig(), mem.New(mem.DefaultConfig()), sbuf.Null{}, &SliceSource{Insts: insts})
		var loads, conflicts, spanning uint64
		for c.stats.Committed < uint64(len(insts)) {
			if c.cycle > 10_000_000 {
				t.Fatalf("seed %d: no progress by cycle %d", seed, c.cycle)
			}
			c.cycle++
			c.commit()
			c.issue()
			before := c.seq
			c.dispatch()
			for i := 0; i < c.robCount; i++ {
				idx := (c.robHead + i) % c.cfg.ROBSize
				if c.robSeq[idx] <= before || c.robFlags[idx]&fLoad == 0 {
					continue
				}
				loads++
				want := ringConflict(c, idx)
				if got := c.robConflict[idx]; got != want {
					t.Fatalf("seed %d cycle %d: load seq %d [%#x,+%d) conflict slot %d, want %d",
						seed, c.cycle, c.robSeq[idx], c.robD[idx].EffAddr, c.robD[idx].MemSize, got, want)
				}
				if want == noDep32 {
					continue
				}
				if c.robConflictSeq[idx] != c.robSeq[want] {
					t.Fatalf("seed %d cycle %d: load seq %d conflict seq %d, want %d",
						seed, c.cycle, c.robSeq[idx], c.robConflictSeq[idx], c.robSeq[want])
				}
				conflicts++
				ld, st := &c.robD[idx], &c.robD[want]
				if ld.EffAddr>>3 != st.EffAddr>>3 {
					spanning++
				}
			}
			c.fetch()
		}
		if c.stats.Stores == 0 || conflicts == 0 || conflicts == loads || spanning == 0 {
			t.Fatalf("seed %d: stream exercised too little: %d loads, %d conflicts (%d across granules), %d stores committed",
				seed, loads, conflicts, spanning, c.stats.Stores)
		}
		t.Logf("seed %d: %d loads, %d conflicts (%d across granules), %d stores committed",
			seed, loads, conflicts, spanning, c.stats.Stores)
	}
}

// TestMinUnissuedMatchesRingScan checks the oldest un-issued store
// watermark (minUnissuedStoreSeq and its ring slot) against a
// brute-force scan of the store ring after every cycle, while stores
// issue out of order and the ring wraps.
func TestMinUnissuedMatchesRingScan(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		insts := conflictStream(20_000, seed)
		c := New(DefaultConfig(), mem.New(mem.DefaultConfig()), sbuf.Null{}, &SliceSource{Insts: insts})
		var rescans uint64
		for c.stats.Committed < uint64(len(insts)) {
			if c.cycle > 10_000_000 {
				t.Fatalf("seed %d: no progress by cycle %d", seed, c.cycle)
			}
			before := c.minUnissuedStoreSeq
			c.cycle++
			c.commit()
			c.issue()
			c.dispatch()
			c.fetch()
			want, slot := uint64(noStoreSeq), -1
			for i := 0; i < c.storeCount; i++ {
				sp := (c.storeHead + i) % len(c.storeQ)
				if c.robFlags[c.storeQ[sp]]&fIssued == 0 {
					want, slot = c.storeSeqQ[sp], sp
					break
				}
			}
			if c.minUnissuedStoreSeq != want || (slot >= 0 && c.minUnissuedStoreSlot != slot) {
				t.Fatalf("seed %d cycle %d: watermark seq %d slot %d, want seq %d slot %d",
					seed, c.cycle, c.minUnissuedStoreSeq, c.minUnissuedStoreSlot, want, slot)
			}
			if before != noStoreSeq && before != want {
				rescans++
			}
		}
		if rescans == 0 {
			t.Fatalf("seed %d: the watermark never moved past an issued store", seed)
		}
	}
}
