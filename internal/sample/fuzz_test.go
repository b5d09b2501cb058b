package sample

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// FuzzDecodeCheckpoint fuzzes the in-memory checkpoint form, the
// deltas a Cursor decodes. Each input picks a starting state, the seed
// snapshot or one of the states oddStates and changedStates derive from
// it, and an edit script (see editState) that changes it at chosen
// arrays, indices and values. The edited state is stored the two ways
// the store holds a checkpoint, as a root and as a delta against the
// seed snapshot, and each must read back exactly through a cursor. The
// starting states include ones no executor produces, and two whose
// deltas against the seed take each way of coding changed indices: one
// L2 line changed, coded as one gap, and every element of every array
// changed, coded as bitmaps.
func FuzzDecodeCheckpoint(f *testing.F) {
	insts := healthStream(f, 5_000)
	fn := bootFor(insts)()
	fn.AdvanceTo(3_000)
	seed := fn.Snapshot()
	starts := append([]*cpu.FunctionalState{seed}, append(oddStates(seed), changedStates(seed)...)...)
	for i := range starts {
		f.Add(uint8(i), []byte(nil))
	}
	// edit encodes one edit of a script.
	edit := func(op byte, i uint16, vals ...uint64) []byte {
		b := []byte{op, byte(i), byte(i >> 8)}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// Every edit once, on its first field at index 1, to all ones.
	var every, pushes []byte
	for op := byte(0); op < numEdits; op++ {
		vals := []uint64{math.MaxUint64}
		if op == editPush {
			vals = append(vals, math.MaxUint64)
		}
		every = append(every, edit(op, 1, vals...)...)
	}
	f.Add(uint8(0), every)
	// Three train events pushed past the seed's, and the same after
	// the ten oldest are dropped, so the delta must keep the seed's
	// newest events, not its first.
	for i := uint64(0); i < 3; i++ {
		pushes = append(pushes, edit(editPush, 0, 8*i+1, 8*i+2)...)
	}
	f.Add(uint8(0), pushes)
	f.Add(uint8(0), append(edit(editDrop, 9, 0), pushes...))
	seedCk := newCkpt(nil, nil, seed, 0)

	f.Fuzz(func(t *testing.T, start uint8, script []byte) {
		i := int(start) % len(starts)
		st := cloneState(starts[i])
		pushed, inPlace := editState(st, script)
		fresh := uint64(len(st.Train))
		if i == 0 && !inPlace {
			fresh = pushed // the ring still holds the seed's newest events before them
		}

		e := new(entry)
		var c Cursor
		c.seek(e, newCkpt(nil, nil, st, 0))
		if !reflect.DeepEqual(&c.st, st) {
			t.Fatal("state stored as a root reads back different")
		}
		c.seek(e, newCkpt(seedCk, seed, st, fresh))
		if !reflect.DeepEqual(&c.st, st) {
			t.Fatal("state stored as a delta against the seed state reads back different")
		}
	})
}

// The edits of an editState script. Each edit is an opcode byte, whose
// value modulo numEdits picks the edit and whose quotient picks a field
// where the edit has several, a two-byte index taken modulo the array's
// length, and an eight-byte value; editPush takes a second value.
// Bytes past the end of the script read as zeros.
const (
	editTag       = iota // a cache line's tag (field: L1D, L1I, L2)
	editStamp            // a cache line's LRU stamp
	editClock            // a cache's clock
	editPage             // a DTLB slot's page
	editPageStamp        // a DTLB slot's stamp
	editTLBScalar        // the DTLB's clock, used count or MRU slot
	editCounter          // a gshare counter (the value's low byte)
	editBTB              // a BTB entry's PC, target, stamp or valid bit
	editPredictor        // a gshare scalar or RAS entry
	editPosition         // the stream position or fetch block
	editTrain            // a train event's PC or address, in place
	editPush             // a train event pushed onto the ring
	editDrop             // the ring's oldest events dropped (index + 1 of them)
	numEdits
)

// editState applies script to st. It returns how many train events it
// pushed, and whether it edited an event in place, after which the
// ring no longer holds its earlier events in order.
func editState(st *cpu.FunctionalState, script []byte) (pushed uint64, inPlace bool) {
	next := func(n int) uint64 {
		var v uint64
		for i := 0; i < n && len(script) > 0; i++ {
			v |= uint64(script[0]) << (8 * i)
			script = script[1:]
		}
		return v
	}
	caches := []*mem.CacheState{&st.Mem.L1D, &st.Mem.L1I, &st.Mem.L2}
	tlb, bp := &st.Mem.DTLB, &st.BP
	for len(script) > 0 {
		op, x, v := next(1), next(2), next(8)
		field := op / numEdits
		c := caches[field%3]
		// at returns x modulo n, and false when n is 0.
		at := func(n int) (int, bool) {
			if n == 0 {
				return 0, false
			}
			return int(x % uint64(n)), true
		}
		switch op % numEdits {
		case editTag:
			if i, ok := at(len(c.Lines)); ok {
				c.Lines[i].Tag = v
			}
		case editStamp:
			if i, ok := at(len(c.Lines)); ok {
				c.Lines[i].LastUse = v
			}
		case editClock:
			c.Clock = v
		case editPage:
			if i, ok := at(len(tlb.Pages)); ok {
				tlb.Pages[i] = v
			}
		case editPageStamp:
			if i, ok := at(len(tlb.LastUse)); ok {
				tlb.LastUse[i] = v
			}
		case editTLBScalar:
			switch field % 3 {
			case 0:
				tlb.Clock = v
			case 1:
				tlb.Used = int(v)
			case 2:
				tlb.MRU = int(v)
			}
		case editCounter:
			if i, ok := at(len(bp.Counters)); ok {
				bp.Counters[i] = uint8(v)
			}
		case editBTB:
			if i, ok := at(len(bp.BTB)); ok {
				b := &bp.BTB[i]
				switch field % 4 {
				case 0:
					b.PC = v
				case 1:
					b.Target = v
				case 2:
					b.LastUse = v
				case 3:
					b.Valid = v&1 != 0
				}
			}
		case editPredictor:
			switch field % 7 {
			case 0:
				bp.History = v
			case 1:
				bp.Clock = v
			case 2:
				bp.RASTop = int(v)
			case 3:
				bp.Branches = v
			case 4:
				bp.DirWrong = v
			case 5:
				bp.TargetWrong = v
			case 6:
				if i, ok := at(len(bp.RAS)); ok {
					bp.RAS[i] = v
				}
			}
		case editPosition:
			if field%2 == 0 {
				st.Pos = v
			} else {
				st.IBlock = v
			}
		case editTrain:
			if i, ok := at(len(st.Train)); ok {
				if field%2 == 0 {
					st.Train[i].PC = v
				} else {
					st.Train[i].Addr = v
				}
				inPlace = true
			}
		case editPush:
			st.Train = append(st.Train, cpu.TrainEvent{PC: v, Addr: next(8)})
			if len(st.Train) > cpu.TrainRingCap {
				st.Train = st.Train[1:]
			}
			pushed++
		case editDrop:
			st.Train = st.Train[min(int(x)+1, len(st.Train)):]
		}
	}
	return pushed, inPlace
}

// cloneState returns a deep copy of st.
func cloneState(st *cpu.FunctionalState) *cpu.FunctionalState {
	c := *st
	for _, cs := range []*mem.CacheState{&c.Mem.L1D, &c.Mem.L1I, &c.Mem.L2} {
		cs.Lines = slices.Clone(cs.Lines)
	}
	c.Mem.DTLB.Pages, c.Mem.DTLB.LastUse = slices.Clone(c.Mem.DTLB.Pages), slices.Clone(c.Mem.DTLB.LastUse)
	c.BP.Counters, c.BP.BTB, c.BP.RAS = slices.Clone(c.BP.Counters), slices.Clone(c.BP.BTB), slices.Clone(c.BP.RAS)
	c.Train = slices.Clone(c.Train)
	return &c
}

// oddStates returns variants of st, a snapshot, that no executor
// produces: stamps above the clock and 2^63 below it, stamp-0 lines
// that carry tags, all-ones tags, stamps, clocks, PCs and addresses,
// tags changed to 0, and empty and full train rings.
func oddStates(st *cpu.FunctionalState) []*cpu.FunctionalState {
	odd := cloneState(st)
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

	empty := cloneState(st)
	empty.Train = empty.Train[:0]

	full := cloneState(st)
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
	one := cloneState(st)
	l := &one.Mem.L2.Lines[len(one.Mem.L2.Lines)/2+3]
	l.Tag, l.LastUse = l.Tag+1, one.Mem.L2.Clock

	all := cloneState(st)
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
// pair picks one of two interleaved cursors and a position, and
// occasionally swaps in a fresh store. Every returned state must equal
// a straight executor's snapshot at its position, and every delta chain
// must respect the depth bound. A small geometry keeps each state a few
// KB.
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
		s := new(Store)
		var cursors [2]Cursor
		ref := boot()
		var want cpu.FunctionalState
		for i := 0; i+1 < len(data); i += 2 {
			op, pos := data[i], uint64(data[i+1])*16
			if op&15 == 15 {
				checkChains(t, s)
				s = new(Store)
			}
			st, _, err := s.At(&cursors[op&1], k, pos, boot)
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
