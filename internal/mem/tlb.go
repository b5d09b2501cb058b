package mem

// TLB is a fully-associative, LRU translation lookaside buffer. The
// simulator predicts and prefetches virtual addresses (§4.5 of the
// paper) and translates them here before touching the hierarchy;
// translation is identity (virtual == physical) but a miss costs a
// page-walk penalty and performs a replacement — so stream-buffer
// prefetches naturally perform TLB prefetching, as in the paper.
//
// The storage is a fixed array of page/lastUse slot pairs — one
// single-set layout of a set-associative structure, sized at the entry
// count — rather than a map: TLBs are small (tens of entries), a
// linear probe over two packed arrays resolves in a handful of cache
// lines with no hashing or allocation, and the hot case (consecutive
// accesses to the same page) is answered by a most-recently-used
// filter before any probing. Past the filter, a direct-mapped
// page-to-slot hint usually names the page's slot; a hint counts only
// when that slot is resident and holds the page, and otherwise the
// linear probe runs. A hint is only ever the slot the probe would
// find, so it changes no result. Replacement is exactly the map
// version's LRU: every access stamps a unique clock value, so the
// victim — the minimum stamp — is deterministic.
type TLB struct {
	entries   int
	pageShift uint
	walk      uint64 // page-walk latency in cycles
	clock     uint64

	pages   []uint64 // page number per slot (valid in [0, used))
	lastUse []uint64 // clock stamp per slot, parallel to pages
	used    int
	mru     int // slot of the most recent hit or install

	hint     []int32 // guessed slot per page&hintMask
	hintMask uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given entry count, page size and
// page-walk latency.
func NewTLB(entries int, pageBytes int, walkCycles uint64) *TLB {
	if entries <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: bad TLB geometry")
	}
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	hints := 1
	for hints < entries {
		hints <<= 1
	}
	return &TLB{
		entries:   entries,
		pageShift: shift,
		walk:      walkCycles,
		pages:     make([]uint64, entries),
		lastUse:   make([]uint64, entries),
		hint:      make([]int32, hints),
		hintMask:  uint64(hints - 1),
	}
}

// Translate looks up addr's page and returns the extra latency the
// access pays (0 on a hit, the walk latency on a miss). The page is
// installed on a miss, evicting LRU if the TLB is full.
func (t *TLB) Translate(addr uint64) (penalty uint64) {
	t.clock++
	t.Accesses++
	page := addr >> t.pageShift
	if t.used > 0 && t.pages[t.mru] == page {
		t.lastUse[t.mru] = t.clock
		return 0
	}
	h := &t.hint[page&t.hintMask]
	if i := int(*h); i < t.used && t.pages[i] == page {
		t.lastUse[i] = t.clock
		t.mru = i
		return 0
	}
	for i := 0; i < t.used; i++ {
		if t.pages[i] == page {
			t.lastUse[i] = t.clock
			t.mru = i
			*h = int32(i)
			return 0
		}
	}
	t.Misses++
	slot := t.used
	if slot >= t.entries {
		// Evict the LRU slot: lastUse stamps are unique, so the
		// minimum identifies exactly one victim.
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
	*h = int32(slot)
	return t.walk
}

// Resident reports whether addr's page is mapped (no state change).
func (t *TLB) Resident(addr uint64) bool {
	page := addr >> t.pageShift
	for i := 0; i < t.used; i++ {
		if t.pages[i] == page {
			return true
		}
	}
	return false
}

// MissRate returns Misses/Accesses.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
