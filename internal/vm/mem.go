package vm

import (
	"encoding/binary"
	"math"
)

// PageBytes is the guest page size. It is also the translation unit
// used by the simulated TLB (internal/mem).
const PageBytes = 4096

// GuestMem is a sparse, page-granular guest physical/virtual memory.
// Pages are allocated on first touch; reads of untouched memory return
// zeros, matching a zero-filled address space, and allocate nothing.
// Like the Machine that owns it, a GuestMem is not safe for concurrent
// use: a read can fill its page cache.
type GuestMem struct {
	pages map[uint64]*page
	// recent caches touched pages by page number, direct-mapped, so
	// most accesses find their page without hashing into pages.
	recent [recentPages]struct {
		pn uint64
		p  *page
	}
}

type page [PageBytes]byte

// recentPages is the number of entries in GuestMem.recent. It must be
// a power of two.
const recentPages = 256

// NewGuestMem returns an empty guest memory.
func NewGuestMem() *GuestMem {
	return &GuestMem{pages: make(map[uint64]*page)}
}

// Pages returns the number of touched pages.
func (m *GuestMem) Pages() int { return len(m.pages) }

// pageOf returns the page holding addr, allocating it when create is set;
// otherwise an untouched page is nil.
func (m *GuestMem) pageOf(addr uint64, create bool) *page {
	pn := addr / PageBytes
	e := &m.recent[pn%recentPages]
	if e.p != nil && e.pn == pn {
		return e.p
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new(page)
		m.pages[pn] = p
	}
	e.pn, e.p = pn, p
	return p
}

// LoadByte returns the byte at addr.
func (m *GuestMem) LoadByte(addr uint64) byte {
	p := m.pageOf(addr, false)
	if p == nil {
		return 0
	}
	return p[addr%PageBytes]
}

// StoreByte stores b at addr.
func (m *GuestMem) StoreByte(addr uint64, b byte) {
	m.pageOf(addr, true)[addr%PageBytes] = b
}

// read copies n bytes starting at addr into buf, handling page splits.
func (m *GuestMem) read(addr uint64, buf []byte) {
	for i := range buf {
		buf[i] = m.LoadByte(addr + uint64(i))
	}
}

// write copies buf into memory starting at addr, handling page splits.
func (m *GuestMem) write(addr uint64, buf []byte) {
	for i := range buf {
		m.StoreByte(addr+uint64(i), buf[i])
	}
}

// Read32 returns the little-endian 32-bit value at addr.
func (m *GuestMem) Read32(addr uint64) uint32 {
	if off := addr % PageBytes; off <= PageBytes-4 {
		if p := m.pageOf(addr, false); p != nil {
			return binary.LittleEndian.Uint32(p[off:])
		}
		return 0
	}
	var buf [4]byte
	m.read(addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// Write32 stores a little-endian 32-bit value at addr.
func (m *GuestMem) Write32(addr uint64, v uint32) {
	if off := addr % PageBytes; off <= PageBytes-4 {
		binary.LittleEndian.PutUint32(m.pageOf(addr, true)[off:], v)
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	m.write(addr, buf[:])
}

// Read64 returns the little-endian 64-bit value at addr.
func (m *GuestMem) Read64(addr uint64) uint64 {
	if off := addr % PageBytes; off <= PageBytes-8 {
		if p := m.pageOf(addr, false); p != nil {
			return binary.LittleEndian.Uint64(p[off:])
		}
		return 0
	}
	var buf [8]byte
	m.read(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Write64 stores a little-endian 64-bit value at addr.
func (m *GuestMem) Write64(addr uint64, v uint64) {
	if off := addr % PageBytes; off <= PageBytes-8 {
		binary.LittleEndian.PutUint64(m.pageOf(addr, true)[off:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.write(addr, buf[:])
}

// ReadFloat returns the float64 stored at addr.
func (m *GuestMem) ReadFloat(addr uint64) float64 {
	return math.Float64frombits(m.Read64(addr))
}

// WriteFloat stores a float64 at addr.
func (m *GuestMem) WriteFloat(addr uint64, v float64) {
	m.Write64(addr, math.Float64bits(v))
}

// Allocator is a bump allocator over guest memory, used by workload
// constructors to lay out heaps before execution. Pad controls an
// optional number of wasted bytes inserted between allocations; the
// workloads use it (with a seeded PRNG) to break accidental striding in
// pointer-chasing structures.
type Allocator struct {
	next  uint64
	align uint64
}

// NewAllocator returns an allocator handing out addresses starting at
// base, aligning every allocation to align bytes (which must be a
// power of two).
func NewAllocator(base, align uint64) *Allocator {
	if align == 0 || align&(align-1) != 0 {
		panic("vm: allocator alignment must be a power of two")
	}
	return &Allocator{next: (base + align - 1) &^ (align - 1), align: align}
}

// Alloc reserves size bytes and returns the base address.
func (a *Allocator) Alloc(size uint64) uint64 {
	addr := a.next
	a.next = (a.next + size + a.align - 1) &^ (a.align - 1)
	return addr
}

// AllocPad reserves size bytes followed by pad wasted bytes.
func (a *Allocator) AllocPad(size, pad uint64) uint64 {
	addr := a.Alloc(size + pad)
	return addr
}

// Reset rewinds the allocator to base (used to model phase-structured
// heaps of short-lived objects, as in deltablue).
func (a *Allocator) Reset(base uint64) {
	a.next = (base + a.align - 1) &^ (a.align - 1)
}
