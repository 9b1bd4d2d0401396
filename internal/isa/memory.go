package isa

import "encoding/binary"

// pageBits is log2 of the backing-store page size. Pages are allocated
// lazily so programs can use sparse, far-apart address regions (heaps,
// secret arrays, probe arrays) without reserving the whole address space.
const pageBits = 12

const pageSize = 1 << pageBits

type page [pageSize]byte

// The page directory is two levels: a leaf holds leafPages consecutive
// page slots (2 MiB of address space), and leaves are found by direct
// index below directLimit — where every kernel, attack and random-program
// arena lives — and through a map above it, so stray 64-bit addresses
// cost a map entry instead of a directory as large as the address.
const (
	leafBits     = 9
	leafPages    = 1 << leafBits
	directLimit  = 1 << 32
	directLeaves = directLimit >> (pageBits + leafBits)
)

// owner is the identity of one writing epoch of one Memory. It is compared
// by address only; the field keeps distinct owners at distinct addresses.
type owner struct{ _ byte }

// leaf is one directory node. A Memory may store into a leaf's slots, and
// write in place the pages whose bit is set in mine, only while the leaf's
// owner is that Memory's current owner; to every other Memory the leaf and
// all its pages are read-only.
type leaf struct {
	owner *owner
	pages [leafPages]*page
	mine  [leafPages / 64]uint64 // pages[i] was allocated or copied by owner
}

// Memory is a sparse, byte-addressable 64-bit physical memory. The zero
// value is ready to use. Reads of never-written locations return zero.
//
// Memory is purely functional state: all timing (caches, DRAM) lives in
// internal/mem. Both the golden executor and the cycle-level pipeline share
// this type so architectural results are directly comparable.
//
// Pages are copy-on-write. Clone, ShareImage and AdoptImage make pages
// reachable from more than one Memory (or from a checkpoint's page map);
// such a shared page is never written again by anyone — a Memory copies it
// into a private page immediately before its first write to it. A Memory
// is not safe for concurrent use, with one exception: a Memory that has
// not been written since its last Freeze, Clone or ShareImage may be read
// and cloned by any number of goroutines at once.
type Memory struct {
	low  []*leaf          // leaves below directLimit, by leaf index; grown on demand
	high map[uint64]*leaf // leaves at and above directLimit, by leaf index
	// own is the current writing epoch: nil while this Memory owns nothing
	// (fresh, or just cloned/shared), set by the first write after that.
	own *owner
	n   int // allocated pages
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// NewImage returns a fresh memory filled in by init (nil: left empty) —
// the form in which workloads and attacks describe their initial image.
func NewImage(init func(*Memory)) *Memory {
	m := NewMemory()
	if init != nil {
		init(m)
	}
	return m
}

func (m *Memory) leafAt(li uint64) *leaf {
	if li < uint64(len(m.low)) {
		return m.low[li]
	}
	if li >= directLeaves {
		return m.high[li]
	}
	return nil
}

func (m *Memory) setLeaf(li uint64, l *leaf) {
	if li >= directLeaves {
		if m.high == nil {
			m.high = make(map[uint64]*leaf)
		}
		m.high[li] = l
		return
	}
	if li >= uint64(len(m.low)) {
		m.low = append(m.low, make([]*leaf, li+1-uint64(len(m.low)))...)
	}
	m.low[li] = l
}

// readPage returns page number pn, or nil if it is not allocated.
func (m *Memory) readPage(pn uint64) *page {
	if l := m.leafAt(pn >> leafBits); l != nil {
		return l.pages[pn&(leafPages-1)]
	}
	return nil
}

// writePage returns page number pn as one this Memory may write in place,
// allocating it, or copying a shared one, first if need be.
func (m *Memory) writePage(pn uint64) *page {
	li, pi := pn>>leafBits, pn&(leafPages-1)
	if li < uint64(len(m.low)) {
		if l := m.low[li]; l != nil && l.owner == m.own && l.mine[pi>>6]&(1<<(pi&63)) != 0 {
			return l.pages[pi]
		}
	}
	l := m.ownedLeaf(li)
	p := l.pages[pi]
	if p != nil && l.mine[pi>>6]&(1<<(pi&63)) != 0 {
		return p // an owned page of a map-backed leaf
	}
	if p == nil {
		p = new(page)
		m.n++
	} else {
		cp := *p
		p = &cp
	}
	l.pages[pi] = p
	l.mine[pi>>6] |= 1 << (pi & 63)
	return p
}

// ownedLeaf returns leaf li as one this Memory may store into: a shared
// leaf is replaced by a private copy of its slots that owns none of its
// pages yet.
func (m *Memory) ownedLeaf(li uint64) *leaf {
	if m.own == nil {
		m.own = new(owner)
	}
	l := m.leafAt(li)
	if l != nil && l.owner == m.own {
		return l
	}
	nl := &leaf{owner: m.own}
	if l != nil {
		nl.pages = l.pages
	}
	m.setLeaf(li, nl)
	return nl
}

// eachPage calls f for every allocated page until f returns false, and
// reports whether it ran to the end.
func (m *Memory) eachPage(f func(pn uint64, p *page) bool) bool {
	visit := func(li uint64, l *leaf) bool {
		for pi, p := range l.pages {
			if p != nil && !f(li<<leafBits|uint64(pi), p) {
				return false
			}
		}
		return true
	}
	for li, l := range m.low {
		if l != nil && !visit(uint64(li), l) {
			return false
		}
	}
	for li, l := range m.high {
		if !visit(li, l) {
			return false
		}
	}
	return true
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint64) byte {
	p := m.readPage(addr >> pageBits)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint64, v byte) {
	m.writePage(addr >> pageBits)[addr&(pageSize-1)] = v
}

// Read64 returns the little-endian 64-bit word at addr. Accesses that
// straddle a page boundary are assembled byte-by-byte.
func (m *Memory) Read64(addr uint64) uint64 {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		p := m.readPage(addr >> pageBits)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off : off+8])
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(m.Read8(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write64 stores the little-endian 64-bit word v at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.writePage(addr >> pageBits)[off:off+8], v)
		return
	}
	for i := 0; i < 8; i++ {
		m.Write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Freeze gives up ownership of every page, so that this Memory too copies
// a page before it next writes to it. It is what Clone and ShareImage do to
// their receiver before letting anyone else see its pages. A Memory that
// owns nothing is left untouched: freezing, cloning and sharing are pure
// reads of a Memory that has not been written since it was last frozen,
// which is what lets many goroutines clone one base image at once.
func (m *Memory) Freeze() {
	if m.own != nil {
		m.own = nil
	}
}

// Clone returns a memory with the same contents that shares every page
// with m: it copies the page directory, not the bytes, and afterwards each
// side copies a page before its first write to it. It is how the same
// initial image is run through many simulator configurations.
func (m *Memory) Clone() *Memory {
	m.Freeze()
	c := &Memory{low: append([]*leaf(nil), m.low...), n: m.n}
	if len(m.high) > 0 {
		c.high = make(map[uint64]*leaf, len(m.high))
		for li, l := range m.high {
			c.high[li] = l
		}
	}
	return c
}

// Pages returns the number of allocated backing pages (for tests).
func (m *Memory) Pages() int { return m.n }

// Image returns a private copy of the memory contents as a page-number →
// page-bytes map, omitting all-zero pages (which are indistinguishable
// from absent pages).
func (m *Memory) Image() map[uint64][]byte {
	return m.image(func(p *page) []byte { return append([]byte(nil), p[:]...) })
}

// ShareImage returns the memory contents in the same form as Image, but
// each slice aliases the memory's own page instead of copying it: the
// pages become shared, m copies one before it next writes to it, and the
// caller must never write through the slices. This is the form warmup
// checkpoints (internal/arch) hold and serialize, so a series of
// snapshots of one memory holds a page once for as long as the program
// does not dirty it.
func (m *Memory) ShareImage() map[uint64][]byte {
	m.Freeze()
	return m.image(func(p *page) []byte { return p[:] })
}

func (m *Memory) image(bytesOf func(*page) []byte) map[uint64][]byte {
	img := make(map[uint64][]byte, m.n)
	m.eachPage(func(pn uint64, p *page) bool {
		if *p != (page{}) {
			img[pn] = bytesOf(p)
		}
		return true
	})
	return img
}

// AdoptImage replaces the memory contents with the given page image
// without copying it: every full-size page of img becomes a shared page
// of m, which m copies before its first write to it, so img comes out of
// any number of adoptions and of everything the adopters then do
// unchanged. The caller must not write to img's pages afterwards. Pages
// longer than the backing page size are truncated; shorter pages are
// copied and zero-extended.
func (m *Memory) AdoptImage(img map[uint64][]byte) {
	*m = Memory{}
	for pn, b := range img {
		if len(b) < pageSize {
			copy(m.writePage(pn)[:], b)
			continue
		}
		m.ownedLeaf(pn >> leafBits).pages[pn&(leafPages-1)] = (*page)(b)
		m.n++
	}
}

// Equal reports whether two memories have identical contents. Zero-filled
// pages are treated the same as absent pages.
func (m *Memory) Equal(o *Memory) bool {
	return m.coveredBy(o) && o.coveredBy(m)
}

func (m *Memory) coveredBy(o *Memory) bool {
	return m.eachPage(func(pn uint64, p *page) bool {
		op := o.readPage(pn)
		if op == nil {
			return *p == (page{})
		}
		return p == op || *p == *op
	})
}
