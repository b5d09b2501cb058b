package mem

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// refTLB is the fully-associative LRU TLB as a plain linear probe over
// every resident slot, with no lookup shortcuts: the reference model
// FuzzTLB holds TLB to.
type refTLB struct {
	entries   int
	pageShift uint
	walk      uint64
	clock     uint64
	pages     []uint64
	lastUse   []uint64
	used, mru int

	accesses, misses uint64
}

func newRefTLB(entries int, pageShift uint, walk uint64) *refTLB {
	return &refTLB{entries: entries, pageShift: pageShift, walk: walk,
		pages: make([]uint64, entries), lastUse: make([]uint64, entries)}
}

func (t *refTLB) translate(addr uint64) uint64 {
	t.clock++
	t.accesses++
	page := addr >> t.pageShift
	if t.used > 0 && t.pages[t.mru] == page {
		t.lastUse[t.mru] = t.clock
		return 0
	}
	for i := 0; i < t.used; i++ {
		if t.pages[i] == page {
			t.lastUse[i] = t.clock
			t.mru = i
			return 0
		}
	}
	t.misses++
	slot := t.used
	if slot >= t.entries {
		slot = 0
		for i := 1; i < t.entries; i++ {
			if t.lastUse[i] < t.lastUse[slot] {
				slot = i
			}
		}
	} else {
		t.used++
	}
	t.pages[slot] = page
	t.lastUse[slot] = t.clock
	t.mru = slot
	return t.walk
}

func (t *refTLB) state() TLBState {
	return TLBState{Clock: t.clock, Used: t.used, MRU: t.mru,
		Pages:   append([]uint64(nil), t.pages...),
		LastUse: append([]uint64(nil), t.lastUse...)}
}

func (t *refTLB) setState(st TLBState) {
	copy(t.pages, st.Pages)
	copy(t.lastUse, st.LastUse)
	t.used, t.mru, t.clock = st.Used, st.MRU, st.Clock
}

// FuzzTLB drives TLB and the reference model with the same page stream
// and requires identical penalties, counters and residency state. The
// input chooses the entry count (up to 1,000, past what a byte can
// index), the spacing of the pages the stream's bytes name (wide
// spacings make every page collide in any page-indexed lookup
// structure), and two stream positions: a snapshot is taken at the
// first and restored into both models at the second, so the TLB must
// also stay exact across a State/SetState round trip onto contents that
// have moved on since.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{64, 0, 0, 10, 40, 1, 2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2})
	f.Add([]byte{0x2c, 0x01, 12, 5, 30, 1, 200, 2, 199, 3, 1, 200, 4, 250, 1, 2, 3})
	f.Add([]byte{1, 0, 3, 2, 6, 7, 7, 8, 7, 9, 7, 8, 8, 7})
	f.Add([]byte{4, 0, 20, 3, 9, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		entries := 1 + int(binary.LittleEndian.Uint16(data))%1000
		stride := uint64(1) << (data[2] % 24)
		snapAt, restoreAt := int(data[3]), int(data[3])+int(data[4])
		stream := data[5:]

		const pageShift, walk = 12, 30
		tl := NewTLB(entries, 1<<pageShift, walk)
		ref := newRefTLB(entries, pageShift, walk)
		var snap TLBState
		for i, b := range stream {
			if i == snapAt {
				snap = tl.State()
			}
			if i == restoreAt && snap.Pages != nil {
				if err := tl.SetState(snap); err != nil {
					t.Fatal(err)
				}
				ref.setState(snap)
			}
			addr := uint64(b)*stride<<pageShift | uint64(i)&0xfff
			got, want := tl.Translate(addr), ref.translate(addr)
			if got != want {
				t.Fatalf("access %d (page %#x): penalty %d, want %d", i, addr>>pageShift, got, want)
			}
			if tl.Accesses != ref.accesses || tl.Misses != ref.misses {
				t.Fatalf("access %d: accesses/misses %d/%d, want %d/%d",
					i, tl.Accesses, tl.Misses, ref.accesses, ref.misses)
			}
		}
		if got, want := tl.State(), ref.state(); !reflect.DeepEqual(got, want) {
			t.Fatalf("state diverged:\n got  %+v\n want %+v", got, want)
		}
	})
}
