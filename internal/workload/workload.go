// Package workload provides the benchmark programs the evaluation runs:
// ten synthetic kernels standing in for the SPEC CPU2017 suite, plus a
// random structured-program generator used for differential testing.
//
// SPEC binaries and their reference inputs are not available here (and the
// simulator runs its own ISA), so each kernel is engineered to reproduce
// the *memory-level and speculation-level* behaviour of the benchmark it
// is named after. The properties that matter to STT/SDO are:
//
//   - which loads have tainted (load-dependent) addresses — only those are
//     delayed by STT or turned into Obl-Lds by SDO;
//   - the cache level each such static load stably hits (real programs'
//     static loads have per-PC-stable levels, which is what makes the
//     paper's PC-indexed location predictors work; Table III measures an
//     aggregate of ~72-75% L1 / ~7% L2 / ~5% L3 / ~11-15% DRAM);
//   - how long branch predicates take to resolve (Spectre-model taint
//     windows exist only under unresolved branches);
//   - working-set sizes and stride patterns (the §V-D access patterns).
//
// Each kernel composes loads from four regions — a hot table (L1 after
// warmup), an L2-resident region, an L3-resident region, and a
// DRAM-resident region — with per-benchmark weights spanning the same
// space the SPEC suite spans. See DESIGN.md for the substitution argument.
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// Workload is one runnable benchmark.
type Workload struct {
	// Name matches the SPEC benchmark the kernel imitates.
	Name string
	// Desc summarises the behaviour being imitated.
	Desc string
	// FP reports whether the kernel exercises floating-point transmitters.
	FP bool
	// Build returns the program and a function that fills in its initial
	// memory image. The program halts on its own after the default
	// iteration count; harness runs cut earlier with a committed-instruction
	// budget. A copy of a suite workload may have its Build wrapped (tests
	// count calls that way) but not replaced by a different kernel: Image
	// would keep serving the suite kernel's image. A different kernel is a
	// new Workload literal.
	Build func() (*isa.Program, func(*isa.Memory))

	// base is set on the workloads All and ByName serve, and only on them:
	// the registered kernel's identity, under which Image builds the
	// initial image once per process.
	base *baseImage
}

// baseImage is one registered kernel's initial memory image, built on
// first use and frozen: nothing writes its pages again, every caller gets
// a copy-on-write clone. There is no eviction and nothing to tune — the
// whole suite is 2,986 pages (12.2 MB).
type baseImage struct {
	once sync.Once
	mem  *isa.Memory
}

// imageBuilds counts the initial images Image has built (tests read it
// through export_test.go).
var imageBuilds atomic.Int64

func buildImage(init func(*isa.Memory)) *isa.Memory {
	imageBuilds.Add(1)
	return isa.NewImage(init)
}

// Image returns the program and a private copy of its initial memory
// image, ready to run and free to write. For a workload served by All or
// ByName the image is built once per process and the copy shares its
// pages copy-on-write, so it costs a page directory plus the pages the
// run dirties; any other Workload builds its image on every call.
func (w Workload) Image() (*isa.Program, *isa.Memory) {
	prog, init := w.Build()
	if w.base == nil {
		return prog, buildImage(init)
	}
	w.base.once.Do(func() {
		w.base.mem = buildImage(init)
		w.base.mem.Freeze()
	})
	return prog, w.base.mem.Clone()
}

// suite is the registered kernels in report order, each with the identity
// its initial image is memoised under.
var suite = func() []Workload {
	ws := []Workload{
		mcf(),
		omnetpp(),
		xalancbmk(),
		gcc(),
		deepsjeng(),
		exchange2(),
		x264(),
		perlbench(),
		leela(),
		xz(),
		lbm(),
		namd(),
		cactuBSSN(),
		fotonik3d(),
	}
	for i := range ws {
		ws[i].base = new(baseImage)
	}
	return ws
}()

// All returns the full suite in a stable order.
func All() []Workload { return append([]Workload(nil), suite...) }

// ByName finds a workload by its name.
func ByName(name string) (Workload, error) {
	for _, w := range suite {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Shared memory-region geometry (slot counts of 8-byte words).
const (
	hotSlots = 1 << 11 // 16KB: L1-resident after warmup
	l2Slots  = 1 << 14 // 128KB: L2-resident
	l3Slots  = 1 << 17 // 1MB: L3-resident
	bigSlots = 1 << 19 // 4MB: spills to DRAM
)

// xorshift is the deterministic PRNG used by every init function.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// fillRegion writes n slot values produced by gen at base.
func fillRegion(m *isa.Memory, base uint64, n int, gen func(i int) uint64) {
	for i := 0; i < n; i++ {
		m.Write64(base+uint64(i)*8, gen(i))
	}
}

// Register conventions for the kernels:
// R1..R9 scratch values, R10..R18 region bases/masks, R20..R23 loop state.
const (
	kIdx   = isa.R20 // loop counter
	kN     = isa.R21 // iteration bound
	kAcc   = isa.R4  // accumulator
	kHot   = isa.R10 // hot region base
	kL2    = isa.R11 // L2 region base
	kL3    = isa.R12 // L3 region base
	kBig   = isa.R13 // big region base
	kHotM  = isa.R14 // hot mask (slot-aligned bytes)
	kMask2 = isa.R15 // L2-region mask
	kMaskB = isa.R16 // big-region mask
	kSh3   = isa.R17 // constant 3
	kOne   = isa.R18 // constant 1
	kMask3 = isa.R19 // L3-region mask
	kCur   = isa.R22 // streaming cursor
	kTmp   = isa.R23
	kChase = isa.R24 // loop-carried pointer-chase register
)

// prologue emits the shared register setup.
func prologue(b *isa.Builder, iters int64, hot, l2, l3, big uint64) {
	b.MovI(kIdx, 0)
	b.MovI(kN, iters)
	b.MovI(kAcc, 0)
	b.MovI(kHot, int64(hot))
	b.MovI(kL2, int64(l2))
	b.MovI(kL3, int64(l3))
	b.MovI(kBig, int64(big))
	b.MovI(kHotM, (hotSlots-1)*8)
	b.MovI(kMask2, (l2Slots-1)*8)
	b.MovI(kMask3, (l3Slots-1)*8)
	b.MovI(kMaskB, (bigSlots-1)*8)
	b.MovI(kSh3, 3)
	b.MovI(kOne, 1)
	b.MovI(kChase, 0)
}

// epilogue emits the loop close and halt.
func epilogue(b *isa.Builder, label string) {
	b.AddI(kIdx, kIdx, 1)
	b.Blt(kIdx, kN, label)
	b.Halt()
}

// gather emits rd = mem[base + ((rs*8) & mask)]: a dependent
// (tainted-address) load into a region.
func gather(b *isa.Builder, rd, rs, base, mask isa.Reg) {
	b.Shl(rd, rs, kSh3)
	b.And(rd, rd, mask)
	b.Add(rd, rd, base)
	b.Load(rd, rd, 0)
}

// mcf imitates 605.mcf_s: network-simplex arc scanning. An index array
// streams in (untainted addresses); every arc triggers dependent gathers —
// three into the hot cost tables (L1), one into the 1MB node region (L3)
// and one across the full 4MB arc array (DRAM) — and the pricing branch
// tests a DRAM-loaded value, keeping speculation windows long. The
// heaviest kernel for every protection, as in the paper.
func mcf() Workload {
	const (
		hot   = 0x100_0000
		l3r   = 0x110_0000
		big   = 0x140_0000
		iters = 14_000
	)
	return Workload{
		Name: "mcf_r",
		Desc: "arc scan: L1 cost tables + L3 nodes + DRAM arcs, pricing branch on DRAM data",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, 0, l3r, big)
			b.MovI(kCur, 0x9E3779B9)
			b.MovI(isa.R9, 17)
			b.Label("loop")
			// Arc id from induction arithmetic (mcf scans arc blocks with
			// computed addresses): pure ALU, so the DRAM arc gather below
			// keeps an untainted address and full memory-level parallelism.
			b.Mul(isa.R1, kIdx, kCur)
			b.Shr(isa.R2, isa.R1, isa.R9)
			b.Xor(isa.R1, isa.R1, isa.R2)
			// Dependent gathers with per-PC-stable levels. The arc stream
			// itself is DRAM-bound but has an untainted address; the
			// tainted gathers hit the caches (as SPEC's do — Table III).
			gather(b, isa.R2, isa.R1, kBig, kMaskB) // arc record: 4MB, DRAM (untainted addr)
			gather(b, isa.R3, isa.R1, kHot, kHotM)  // cost coefficient: L1, tainted
			// The node tree is compact (32KB) so it stays cache-resident
			// despite the arc stream flooding the LLC — R8 holds its mask.
			b.MovI(isa.R8, (4096-1)*8)
			gather(b, isa.R5, isa.R2, kL3, isa.R8) // node from arc value: tainted
			gather(b, isa.R6, isa.R5, kHot, kHotM) // potential: L1, tainted
			gather(b, isa.R7, isa.R3, kHot, kHotM) // basis flag: L1, tainted
			// Pricing branch on the DRAM-loaded arc record: resolves late
			// but is well-predicted (negative reduced costs are rare).
			b.MovI(kTmp, 63)
			b.And(isa.R8, isa.R2, kTmp)
			b.Beq(isa.R8, kTmp, "neg")
			b.Add(kAcc, kAcc, isa.R6)
			b.Jmp("join")
			b.Label("neg")
			b.Sub(kAcc, kAcc, isa.R7)
			b.Label("join")
			// Loop-carried node walk (the network-simplex tree traversal):
			// each step's address is the previous step's loaded value — the
			// pattern STT serialises to one step per taint window and SDO
			// restores to cache speed.
			b.MovI(isa.R8, (4096-1)*8)
			gather(b, kChase, kChase, kL3, isa.R8) // compact node walk, tainted
			gather(b, isa.R3, kChase, kHot, kHotM) // depth/potential: L1, tainted
			b.Add(kAcc, kAcc, isa.R3)
			b.Add(kAcc, kAcc, isa.R5)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				rng := xorshift(0x9e3779b97f4a7c15)
				fillRegion(m, hot, hotSlots, func(int) uint64 { return rng.next() % 997 })
				fillRegion(m, l3r, l2Slots, func(int) uint64 { return rng.next() % 4096 })
				fillRegion(m, big, bigSlots, func(int) uint64 { return rng.next() })
			}
			return prog, init
		},
	}
}

// omnetpp imitates 620.omnetpp_s: discrete-event simulation. Event records
// live in an L3-resident 1MB heap; handler state is hot; each event's
// payload pointer is dereferenced (dependent load back into the heap).
func omnetpp() Workload {
	const (
		hot   = 0x200_0000
		l3r   = 0x210_0000
		iters = 16_000
	)
	return Workload{
		Name: "omnetpp_r",
		Desc: "event heap: L1 handler state + L3-resident records and payload derefs",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, 0, l3r, 0)
			b.MovI(isa.R9, 0x9E3779B9)
			b.MovI(kTmp, 16)
			b.Label("loop")
			// Event-id hash (untainted address into the heap).
			b.Mul(isa.R1, kIdx, isa.R9)
			b.Shr(isa.R2, isa.R1, kTmp)
			b.Xor(isa.R1, isa.R1, isa.R2)
			b.Shl(isa.R1, isa.R1, kSh3)
			b.And(isa.R1, isa.R1, kMask3)
			b.Add(isa.R1, isa.R1, kL3)
			b.Load(isa.R2, isa.R1, 0)              // event record: L3
			gather(b, isa.R3, isa.R2, kL3, kMask3) // payload deref: L3, tainted
			gather(b, isa.R5, isa.R2, kHot, kHotM) // handler state: L1, tainted
			gather(b, isa.R6, isa.R3, kHot, kHotM) // module state: L1, tainted
			// Dispatch branch on the L3-loaded record: resolves after ~40
			// cycles, opening Spectre-model speculation windows over the
			// next events' gathers.
			b.MovI(isa.R8, 31)
			b.And(isa.R7, isa.R2, isa.R8)
			b.Beq(isa.R7, isa.R8, "timer")
			b.Add(kAcc, kAcc, isa.R5)
			b.Jmp("sched")
			b.Label("timer")
			b.Add(kAcc, kAcc, isa.R6)
			b.Label("sched")
			// Heap percolation: parent pointers chase through hot memory.
			gather(b, kChase, kChase, kHot, kHotM) // L1-resident walk, tainted
			b.Add(kAcc, kAcc, kChase)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				rng := xorshift(42)
				fillRegion(m, hot, hotSlots, func(int) uint64 { return rng.next() % 127 })
				fillRegion(m, l3r, l3Slots, func(int) uint64 { return rng.next() })
			}
			return prog, init
		},
	}
}

// xalancbmk imitates 623.xalancbmk_s: XML symbol-table lookups. Hash
// probes into an L2-resident table; matched entries chase one chain link
// (dependent, L2) and touch hot interning state (L1); a branch tests the
// probed value.
func xalancbmk() Workload {
	const (
		hot   = 0x300_0000
		l2r   = 0x310_0000
		iters = 16_000
	)
	return Workload{
		Name: "xalancbmk_r",
		Desc: "hash probes into an L2 table with dependent chain links and value branches",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, l2r, 0, 0)
			b.MovI(isa.R9, 0x85EB)
			b.MovI(kTmp, 11)
			b.MovI(isa.R8, 1330)
			b.Label("loop")
			b.Mul(isa.R1, kIdx, isa.R9)
			b.Shr(isa.R2, isa.R1, kTmp)
			b.Xor(isa.R1, isa.R1, isa.R2)
			b.Shl(isa.R1, isa.R1, kSh3)
			b.And(isa.R1, isa.R1, kMask2)
			b.Add(isa.R1, isa.R1, kL2)
			b.Load(isa.R2, isa.R1, 0)              // table probe: L2 (untainted addr)
			gather(b, isa.R3, isa.R2, kL2, kMask2) // chain link: L2, tainted
			gather(b, isa.R5, isa.R2, kHot, kHotM) // interned symbol: L1, tainted
			gather(b, isa.R6, isa.R5, kHot, kHotM) // symbol attrs: L1, tainted
			b.Blt(isa.R2, isa.R8, "small")         // branch on the L2-loaded value
			b.Add(kAcc, kAcc, isa.R3)
			b.Jmp("next")
			b.Label("small")
			b.Add(kAcc, kAcc, isa.R6)
			b.Label("next")
			// DOM-tree descent: child pointers chase through hot memory.
			gather(b, kChase, kChase, kHot, kHotM) // L1-resident walk, tainted
			b.Add(kAcc, kAcc, kChase)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				rng := xorshift(7)
				fillRegion(m, hot, hotSlots, func(int) uint64 { return rng.next() % 251 })
				fillRegion(m, l2r, l2Slots, func(int) uint64 { return rng.next() % 1400 })
			}
			return prog, init
		},
	}
}

// gcc imitates 602.gcc_s: IR walks — mostly hot data with dependent
// derefs, some L2 traffic, integer div/mul, and mixed branches.
func gcc() Workload {
	const (
		hot   = 0x400_0000
		l2r   = 0x410_0000
		iters = 15_000
	)
	return Workload{
		Name: "gcc_r",
		Desc: "IR walk: hot node derefs, some L2 traffic, div/mul, mixed branches",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, l2r, 0, 0)
			b.MovI(isa.R9, 13)
			b.Label("loop")
			b.Shl(isa.R1, kIdx, kSh3)
			b.And(isa.R1, isa.R1, kMask2)
			b.Add(isa.R1, isa.R1, kL2)
			b.Load(isa.R2, isa.R1, 0)              // IR node: L2 stream (untainted)
			gather(b, isa.R3, isa.R2, kHot, kHotM) // operand: L1, tainted
			gather(b, isa.R5, isa.R3, kHot, kHotM) // type info: L1, tainted
			gather(b, isa.R6, isa.R2, kL2, kMask2) // use-chain: L2, tainted
			b.Div(isa.R7, isa.R2, isa.R9)
			b.Mul(isa.R7, isa.R7, isa.R9)
			b.Sub(isa.R7, isa.R2, isa.R7) // R2 % 13
			b.Beq(isa.R7, kOne, "fold")
			b.Add(kAcc, kAcc, isa.R5)
			b.Jmp("next")
			b.Label("fold")
			b.Add(kAcc, kAcc, isa.R6)
			b.Label("next")
			// Def-use chain walk through hot IR nodes.
			gather(b, kChase, kChase, kHot, kHotM) // L1-resident walk, tainted
			b.Add(kAcc, kAcc, kChase)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				rng := xorshift(1234)
				fillRegion(m, hot, hotSlots, func(int) uint64 { return rng.next() % 509 })
				fillRegion(m, l2r, l2Slots, func(int) uint64 { return rng.next() % 100_000 })
			}
			return prog, init
		},
	}
}

// deepsjeng imitates 631.deepsjeng_s: alpha-beta search — everything hot
// (L1), dominated by unpredictable branches on loaded values; protection
// cost comes from short taint windows and implicit-channel handling.
func deepsjeng() Workload {
	const (
		hot   = 0x500_0000
		iters = 20_000
	)
	return Workload{
		Name: "deepsjeng_r",
		Desc: "L1-resident search with unpredictable data-dependent branches",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, 0, 0, 0)
			b.MovI(isa.R9, 33)
			b.Label("loop")
			b.Shl(isa.R1, kIdx, kSh3)
			b.And(isa.R1, isa.R1, kHotM)
			b.Add(isa.R1, isa.R1, kHot)
			b.Load(isa.R2, isa.R1, 0)              // position entry: L1
			gather(b, isa.R3, isa.R2, kHot, kHotM) // transposition probe: L1, tainted
			gather(b, isa.R5, isa.R3, kHot, kHotM) // history slot: L1, tainted
			b.Xor(kAcc, kAcc, isa.R3)
			b.And(isa.R6, isa.R2, kOne)
			b.Beq(isa.R6, kOne, "cut") // ~50/50 branch on loaded data
			b.Add(kAcc, kAcc, isa.R5)
			b.Jmp("next")
			b.Label("cut")
			b.Mul(kAcc, kAcc, isa.R9)
			b.Label("next")
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				rng := xorshift(99)
				fillRegion(m, hot, hotSlots, func(int) uint64 { return rng.next() })
			}
			return prog, init
		},
	}
}

// exchange2 imitates 648.exchange2_s: tiny working set, perfectly
// predictable control flow, no tainted-address loads — the low-overhead
// extreme for every protection.
func exchange2() Workload {
	const (
		hot   = 0x600_0000
		iters = 18_000
	)
	return Workload{
		Name: "exchange2_r",
		Desc: "tiny working set, predictable branches, no load-dependent addresses",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, 0, 0, 0)
			b.MovI(isa.R9, 81*8-8)
			b.MovI(isa.R8, 5)
			b.Label("loop")
			b.Shl(isa.R1, kIdx, kSh3)
			b.And(isa.R1, isa.R1, isa.R9)
			b.Add(isa.R1, isa.R1, kHot)
			b.Load(isa.R2, isa.R1, 0) // board cell (index from counter)
			b.Mul(isa.R3, isa.R2, isa.R8)
			b.AddI(isa.R3, isa.R3, 7)
			b.And(isa.R3, isa.R3, kHotM)
			b.Store(isa.R3, isa.R1, 0)
			b.Add(kAcc, kAcc, isa.R3)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				fillRegion(m, hot, 81, func(i int) uint64 { return uint64(i%9 + 1) })
			}
			return prog, init
		},
	}
}

// x264 imitates 625.x264_s: motion estimation — a dependent load that
// strides sequentially through an L2-resident reference frame, producing
// the periodic (7x L1-hit, 1x L2-miss) per-PC pattern the paper's loop
// predictor targets (§V-D access pattern 2).
func x264() Workload {
	const (
		hot   = 0x700_0000
		l2r   = 0x710_0000
		idxB  = 0x720_0000
		iters = 16_000
	)
	return Workload{
		Name: "x264_r",
		Desc: "strided dependent loads through an L2 frame: periodic L1-miss pattern",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, l2r, 0, 0)
			b.MovI(kCur, idxB)
			b.Label("loop")
			b.Load(isa.R1, kCur, 0) // motion vector: sequential values 0,1,2,...
			b.AddI(kCur, kCur, 8)
			// Dependent *strided* gather: address = frame + mv*8. Since mv
			// increments, this load walks cache lines: 7 hits then a miss.
			b.Shl(isa.R2, isa.R1, kSh3)
			b.And(isa.R2, isa.R2, kMask2)
			b.Add(isa.R2, isa.R2, kL2)
			b.Load(isa.R3, isa.R2, 0)              // reference block: stride pattern
			b.Load(isa.R5, isa.R2, 8)              // neighbour block
			gather(b, isa.R6, isa.R3, kHot, kHotM) // SAD table: L1, tainted
			b.Sub(isa.R7, isa.R3, isa.R5)
			// Early-termination branch on the reference block value.
			b.MovI(isa.R8, 242)
			b.Bge(isa.R3, isa.R8, "skip")
			b.Add(kAcc, kAcc, isa.R7)
			b.Label("skip")
			b.Add(kAcc, kAcc, isa.R6)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				rng := xorshift(2024)
				fillRegion(m, hot, hotSlots, func(int) uint64 { return rng.next() % 255 })
				fillRegion(m, l2r, l2Slots, func(int) uint64 { return rng.next() % 255 })
				fillRegion(m, idxB, iters+8, func(i int) uint64 { return uint64(i) })
			}
			return prog, init
		},
	}
}

// lbm imitates 619.lbm_s: lattice-Boltzmann — FP streaming over DRAM-sized
// arrays; the collision step multiplies loaded distributions (tainted FP
// transmitters) and writes back.
func lbm() Workload {
	const (
		src   = 0x800_0000
		dst   = 0x840_0000
		iters = 13_000
	)
	return Workload{
		Name: "lbm_r",
		FP:   true,
		Desc: "FP streaming over 2x4MB arrays; collision fmuls on loaded data",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, src, dst, 0, 0)
			b.MovI(kCur, 0) // byte offset
			b.MovI(isa.R9, 3)
			b.ItoF(isa.R9, isa.R9)
			b.Label("loop")
			b.Add(isa.R1, kHot, kCur) // kHot holds the src base here
			b.Load(isa.R2, isa.R1, 0)
			b.Load(isa.R3, isa.R1, 8)
			b.FMul(isa.R5, isa.R2, isa.R9) // tainted FP transmitter
			b.FAdd(isa.R5, isa.R5, isa.R3)
			b.Add(isa.R6, kL2, kCur) // kL2 holds the dst base
			b.Store(isa.R5, isa.R6, 0)
			b.AddI(kCur, kCur, 8)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				fillRegion(m, src, iters+8, func(i int) uint64 {
					return 4602891378046628709 + uint64(i) // ~0.5 + i ulps
				})
			}
			return prog, init
		},
	}
}

// namd imitates 644.namd_s: molecular dynamics — FP-dense compute on hot
// (L1) data, with fmul/fsqrt transmitters fed by loads and rare subnormal
// intermediates (the §I-A slow-path case).
func namd() Workload {
	const (
		hot   = 0x900_0000
		iters = 14_000
	)
	return Workload{
		Name: "namd_r",
		FP:   true,
		Desc: "FP-dense L1-resident force loop with rare subnormal operands",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			b := isa.NewBuilder()
			prologue(b, iters, hot, 0, 0, 0)
			b.MovI(kAcc, 0)
			b.ItoF(kAcc, kAcc)
			b.Label("loop")
			b.Shl(isa.R1, kIdx, kSh3)
			b.And(isa.R1, isa.R1, kHotM)
			b.Add(isa.R1, isa.R1, kHot)
			b.Load(isa.R2, isa.R1, 0)      // coordinate
			b.Load(isa.R3, isa.R1, 8)      // charge
			b.FMul(isa.R5, isa.R2, isa.R3) // tainted transmitter; rarely subnormal
			b.FAdd(kAcc, kAcc, isa.R5)
			b.FSqrt(isa.R6, isa.R5) // tainted transmitter
			b.FAdd(kAcc, kAcc, isa.R6)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				fillRegion(m, hot, hotSlots, func(i int) uint64 {
					if i%61 == 17 {
						return uint64(i + 1) // tiny subnormal
					}
					return 4602891378046628709 + uint64(i)*997
				})
			}
			return prog, init
		},
	}
}

// fotonik3d imitates 649.fotonik3d_s: 3D FDTD — strided sweeps with a far
// plane neighbour, an FDiv transmitter, and a hot coefficient lookup
// indexed by loaded material ids.
func fotonik3d() Workload {
	const (
		hot   = 0xA00_0000
		grid  = 0xA10_0000
		iters = 13_000
	)
	return Workload{
		Name: "fotonik3d_r",
		FP:   true,
		Desc: "3D stencil: strided grid sweeps, far-plane neighbours, fdiv on loaded data",
		Build: func() (*isa.Program, func(*isa.Memory)) {
			const planeStride = 1 << 13 // 8KB: the "z" neighbour
			b := isa.NewBuilder()
			prologue(b, iters, hot, 0, grid, 0)
			b.MovI(kCur, 0)
			b.MovI(isa.R9, 5)
			b.ItoF(isa.R9, isa.R9)
			b.MovI(kMask2, (1<<20)-8) // 1MB sweep window
			b.Label("loop")
			b.Add(isa.R1, kL3, kCur)            // kL3 holds the grid base
			b.Load(isa.R2, isa.R1, 0)           // x neighbour
			b.Load(isa.R3, isa.R1, planeStride) // z neighbour (far)
			b.FAdd(isa.R6, isa.R2, isa.R3)
			b.FDiv(isa.R6, isa.R6, isa.R9) // tainted transmitter
			b.FtoI(isa.R7, isa.R6)
			gather(b, isa.R5, isa.R7, kHot, kHotM) // coefficient from the FP result: L1
			b.Add(kAcc, kAcc, isa.R7)
			b.Add(kAcc, kAcc, isa.R5)
			b.AddI(kCur, kCur, 264)
			b.And(kCur, kCur, kMask2)
			epilogue(b, "loop")
			prog := b.MustBuild()
			init := func(m *isa.Memory) {
				rng := xorshift(31337)
				fillRegion(m, hot, hotSlots, func(int) uint64 { return rng.next() % 89 })
				fillRegion(m, grid, (1<<20)/8+planeStride/8+8, func(i int) uint64 {
					if i%3 == 2 {
						return rng.next() % 4096 // material ids interleaved
					}
					return 4602891378046628709 + uint64(i)
				})
			}
			return prog, init
		},
	}
}
