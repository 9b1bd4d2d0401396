package isa

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// refMemory is the copy-on-write Memory's reference model: one map entry
// per non-zero byte, deep-copied on clone.
type refMemory map[uint64]byte

func (r refMemory) write8(addr uint64, v byte) {
	if v == 0 {
		delete(r, addr)
		return
	}
	r[addr] = v
}

func (r refMemory) write64(addr, v uint64) {
	for i := uint64(0); i < 8; i++ {
		r.write8(addr+i, byte(v>>(8*i)))
	}
}

func (r refMemory) read64(addr uint64) uint64 {
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(r[addr+i]) << (8 * i)
	}
	return v
}

func (r refMemory) clone() refMemory {
	c := make(refMemory, len(r))
	for a, v := range r {
		c[a] = v
	}
	return c
}

// refOfImage flattens a page image into the model's form.
func refOfImage(img map[uint64][]byte) refMemory {
	r := refMemory{}
	for pn, b := range img {
		for off, v := range b {
			r.write8(pn<<pageBits+uint64(off), v)
		}
	}
	return r
}

func copyImage(img map[uint64][]byte) map[uint64][]byte {
	c := make(map[uint64][]byte, len(img))
	for pn, b := range img {
		c[pn] = append([]byte{}, b...)
	}
	return c
}

// cowAddr draws from a pool small enough that members of a clone tree
// keep hitting each other's pages: low pages, a page in the map-backed
// part of the directory (≥ 2⁴⁰), the boundary between the directly
// indexed and the map-backed part, the top of the address space (a
// 64-bit write there wraps to address 0), and offsets that make 64-bit
// accesses straddle a page.
func cowAddr(rng *rand.Rand) uint64 {
	bases := []uint64{
		0, pageSize, 2 * pageSize, 7 * pageSize, leafPages * pageSize, (leafPages + 1) * pageSize,
		directLimit - pageSize, directLimit, 1 << 40, 1<<40 + pageSize, 1<<63 + 5*pageSize,
		^uint64(0) - pageSize + 1,
	}
	offs := []uint64{0, 8, 1000, pageSize - 16, pageSize - 8, pageSize - 5, pageSize - 1}
	return bases[rng.Intn(len(bases))] + offs[rng.Intn(len(offs))]
}

// TestMemoryCopyOnWriteMatchesDeepCopyModel drives random interleavings
// of byte and word writes, Clone, Image → SetImage and ShareImage →
// AdoptImage over a tree of memories, against a model in which every one
// of those copies every byte. Sharing pages must be unobservable: every read
// agrees with the model, and no image handed out by ShareImage (a
// checkpoint's view of the pages) ever changes afterwards.
func TestMemoryCopyOnWriteMatchesDeepCopyModel(t *testing.T) {
	type member struct {
		m   *Memory
		ref refMemory
	}
	type sharedImage struct {
		img, want map[uint64][]byte
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := []member{{new(Memory), refMemory{}}} // the zero value is usable
		var shared []sharedImage
		pick := func() *member { return &tree[rng.Intn(len(tree))] }
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(20); {
			case op < 7:
				x, addr, v := pick(), cowAddr(rng), rng.Uint64()
				x.m.Write64(addr, v)
				x.ref.write64(addr, v)
			case op < 11:
				x, addr, v := pick(), cowAddr(rng), byte(rng.Intn(4)) // zero often: a page may empty again
				x.m.Write8(addr, v)
				x.ref.write8(addr, v)
			case op < 13:
				x := pick()
				tree = append(tree, member{x.m.Clone(), x.ref.clone()})
			case op < 14:
				src, dst := pick(), pick()
				img := src.m.Image()
				dst.m.SetImage(img)
				dst.ref = src.ref.clone()
				for _, b := range img { // both ends of Image → SetImage copy
					b[rng.Intn(len(b))] ^= 0xff
				}
			case op < 15:
				src, dst := pick(), pick()
				img := src.m.ShareImage()
				dst.m.AdoptImage(img)
				dst.ref = src.ref.clone()
				shared = append(shared, sharedImage{img, copyImage(img)})
			case op < 16 && len(tree) > 1: // a member goes away; what it shared stays valid
				i := rng.Intn(len(tree))
				tree = append(tree[:i], tree[i+1:]...)
			default:
				x, addr := pick(), cowAddr(rng)
				if got, want := x.m.Read64(addr), x.ref.read64(addr); got != want {
					t.Fatalf("seed %d step %d: Read64(%#x) = %#x, model %#x", seed, step, addr, got, want)
				}
				if got, want := x.m.Read8(addr), x.ref[addr]; got != want {
					t.Fatalf("seed %d step %d: Read8(%#x) = %#x, model %#x", seed, step, addr, got, want)
				}
			}
			if len(tree) > 10 {
				tree = tree[1:]
			}
			if step%250 != 249 {
				continue
			}
			for i, x := range tree {
				if got := refOfImage(x.m.Image()); !reflect.DeepEqual(got, x.ref) {
					t.Fatalf("seed %d step %d: member %d's image diverged from the model", seed, step, i)
				}
				y := tree[rng.Intn(len(tree))]
				if got, want := x.m.Equal(y.m), reflect.DeepEqual(x.ref, y.ref); got != want {
					t.Fatalf("seed %d step %d: Equal = %v, models equal = %v", seed, step, got, want)
				}
			}
			for i, s := range shared {
				if !reflect.DeepEqual(s.img, s.want) {
					t.Fatalf("seed %d step %d: shared image %d was written through", seed, step, i)
				}
			}
		}
	}
}

// TestMemoryAdoptImagePageSizes pins AdoptImage's documented handling of
// odd page lengths: short pages are copied and zero-extended, long ones
// truncated, and neither kind is written through.
func TestMemoryAdoptImagePageSizes(t *testing.T) {
	long := make([]byte, pageSize+8)
	long[0], long[pageSize-1], long[pageSize] = 1, 2, 3
	img := map[uint64][]byte{3: {9, 8, 7}, 5: long, 6: {}}
	want := copyImage(img)
	var m Memory
	m.Write64(0x9000, 77) // replaced wholesale
	m.AdoptImage(img)
	if got := m.Read64(0x9000); got != 0 {
		t.Errorf("content from before AdoptImage survived: %#x", got)
	}
	if got := m.ReadBytes(3*pageSize, 4); !reflect.DeepEqual(got, []byte{9, 8, 7, 0}) {
		t.Errorf("short page = %v, want it zero-extended", got)
	}
	if m.Read8(5*pageSize) != 1 || m.Read8(6*pageSize-1) != 2 || m.Read8(6*pageSize) != 0 {
		t.Error("long page not truncated to the page size")
	}
	if m.Pages() != 3 {
		t.Errorf("Pages() = %d, want 3", m.Pages())
	}
	m.Write8(3*pageSize, 0xaa)
	m.Write8(5*pageSize, 0xbb)
	if !reflect.DeepEqual(img, want) {
		t.Error("a write to the adopting memory reached the adopted image")
	}
}

// TestMemoryConcurrentClonesOfFrozenBase is the sharing contract under
// the race detector: once frozen, one base image may be cloned and read by
// any number of goroutines at once; each clone's writes, to addresses the
// others write too, stay its own; and the base comes out unchanged.
func TestMemoryConcurrentClonesOfFrozenBase(t *testing.T) {
	const goroutines, words = 8, 3000
	addr := func(i int) uint64 { // disjoint words over ~18 pages, some straddling two, every 7th map-backed
		a := 0x10000 + uint64(i)*24 + uint64(i%3)*3
		if i%7 == 0 {
			a += 1 << 40
		}
		return a
	}
	base := NewMemory()
	for i := 0; i < words; i++ {
		base.Write64(addr(i), uint64(i)<<8)
	}
	want := base.Image()
	base.Freeze()

	var wg sync.WaitGroup
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			c := base.Clone()
			for i := 0; i < words; i += 2 { // every goroutine writes the same even words
				c.Write64(addr(i), g)
			}
			grand := c.Clone() // a clone of a clone, written after the fork
			grand.Write64(addr(1), g)
			for i := 0; i < words; i++ {
				want := uint64(i) << 8
				if got := base.Read64(addr(i)); got != want {
					t.Errorf("goroutine %d: base word %d = %#x, want %#x", g, i, got, want)
					return
				}
				if i%2 == 0 {
					want = g
				}
				if got := c.Read64(addr(i)); got != want {
					t.Errorf("goroutine %d: clone word %d = %#x, want %#x", g, i, got, want)
					return
				}
				if i == 1 {
					want = g
				}
				if got := grand.Read64(addr(i)); got != want {
					t.Errorf("goroutine %d: grandchild word %d = %#x, want %#x", g, i, got, want)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if !reflect.DeepEqual(base.Image(), want) {
		t.Fatal("the frozen base changed under its clones")
	}
}
