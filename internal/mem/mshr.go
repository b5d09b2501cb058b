package mem

// MSHRFile tracks outstanding (in-flight) cache fills by block address.
// An access to a block with an active MSHR is the paper's "in-flight"
// case: it counts as a miss but merges with the pending fill rather
// than issuing a second request.
//
// Entries live in a fixed slot array, not a map: files are small (4-16
// entries) so a linear scan beats hashing on the per-access lookup
// path, and — critically for the parallel experiment runner — victim
// selection breaks ready-cycle ties by slot index instead of map
// iteration order, keeping every simulation bit-deterministic.
type mshrEntry struct {
	block uint64
	ready uint64 // fill-completion cycle
	valid bool
}

// MSHRFile is a file of miss-status holding registers.
type MSHRFile struct {
	slots []mshrEntry

	// live counts valid slots; minReady is a lower bound on the
	// earliest completion among them (exact after every expire scan,
	// possibly stale-low after installs and cancels). Together they
	// let expire — called on every lookup — skip the slot scan
	// entirely until some fill can actually have completed.
	live     int
	minReady uint64

	Allocs  uint64 // fills installed
	Merges  uint64 // accesses merged into an existing entry
	FullHit uint64 // allocation attempts that found the file full
}

// NewMSHRFile returns a file with the given number of entries.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("mem: MSHR capacity must be positive")
	}
	return &MSHRFile{slots: make([]mshrEntry, capacity)}
}

// Capacity returns the entry count.
func (f *MSHRFile) Capacity() int { return len(f.slots) }

// InFlight returns the number of live entries at cycle (expiring stale
// ones first).
func (f *MSHRFile) InFlight(cycle uint64) int {
	f.expire(cycle)
	return f.live
}

func (f *MSHRFile) expire(cycle uint64) {
	if f.live == 0 || cycle < f.minReady {
		return // no fill can have completed yet
	}
	live, minReady := 0, ^uint64(0)
	for i := range f.slots {
		if !f.slots[i].valid {
			continue
		}
		if f.slots[i].ready <= cycle {
			f.slots[i].valid = false
			continue
		}
		live++
		if f.slots[i].ready < minReady {
			minReady = f.slots[i].ready
		}
	}
	f.live, f.minReady = live, minReady
}

// Lookup reports whether block has an active fill at cycle, and if so
// when it completes. A Lookup that finds an entry is a merge.
func (f *MSHRFile) Lookup(cycle, block uint64) (ready uint64, ok bool) {
	f.expire(cycle)
	if f.live == 0 {
		return 0, false
	}
	for i := range f.slots {
		if f.slots[i].valid && f.slots[i].block == block {
			f.Merges++
			return f.slots[i].ready, true
		}
	}
	return 0, false
}

// ReserveStall makes room for a new entry at cycle. If the file is
// full, the entry completing earliest (lowest slot index breaking
// ties) is retired and the returned stall is how many cycles the
// requester must wait before its request can be accepted; otherwise
// the stall is zero.
func (f *MSHRFile) ReserveStall(cycle uint64) (stall uint64) {
	f.expire(cycle)
	if f.live < len(f.slots) {
		return 0
	}
	victim := 0
	for i := 1; i < len(f.slots); i++ {
		if f.slots[i].ready < f.slots[victim].ready {
			victim = i
		}
	}
	f.FullHit++
	earliest := f.slots[victim].ready
	f.slots[victim].valid = false
	f.live--
	if earliest > cycle {
		return earliest - cycle
	}
	return 0
}

// Install records a fill of block completing at ready. If the block
// already has an entry completing no earlier, the existing entry wins;
// if the file is unexpectedly full (callers normally make room with
// ReserveStall first) the earliest-completing entry is replaced.
func (f *MSHRFile) Install(block, ready uint64) {
	free, victim := -1, 0
	for i := range f.slots {
		if f.slots[i].valid {
			if f.slots[i].block == block {
				if f.slots[i].ready >= ready {
					return
				}
				free = i
				break
			}
			if f.slots[victim].valid && f.slots[i].ready < f.slots[victim].ready {
				victim = i
			}
			continue
		}
		if free < 0 {
			free = i
		}
	}
	if free < 0 {
		free = victim
	}
	f.Allocs++
	if !f.slots[free].valid {
		if f.live == 0 {
			f.minReady = ready
		}
		f.live++
	}
	if ready < f.minReady {
		f.minReady = ready
	}
	f.slots[free] = mshrEntry{block: block, ready: ready, valid: true}
}

// EarliestReady returns the completion cycle of the earliest in-flight
// fill still outstanding after cycle, and whether one exists. It is
// read-only (no expiry, no counters): the event-driven cycle loop uses
// it to report the file's horizon without perturbing state.
func (f *MSHRFile) EarliestReady(cycle uint64) (ready uint64, ok bool) {
	for i := range f.slots {
		s := &f.slots[i]
		if s.valid && s.ready > cycle && (!ok || s.ready < ready) {
			ready, ok = s.ready, true
		}
	}
	return ready, ok
}
