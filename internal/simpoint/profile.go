package simpoint

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/isa"
)

// Interval is one profiled interval of the measurement window.
type Interval struct {
	// Start is the interval's first instruction as an absolute
	// committed-instruction boundary (warmup included), i.e. the
	// functional-warmup budget a checkpoint at the interval's start is
	// captured with.
	Start uint64
	// Len is the interval's length in committed instructions
	// (IntervalInstrs except possibly the last interval).
	Len uint64
	// Vec is the interval's basic-block vector after random projection
	// to projDim dimensions, normalized by interval length (so it is a
	// per-instruction code-execution profile, comparable across the
	// short tail interval and the full-size ones).
	Vec []float64
}

// Profile is the per-interval BBV profile of one program's measurement
// window, produced by a single functional-emulation pass.
type Profile struct {
	Config
	// WarmupInstrs is the window's start boundary (instructions skipped
	// before profiling begins).
	WarmupInstrs uint64
	// WindowInstrs is the number of instructions actually profiled:
	// min(requested window, instructions to halt).
	WindowInstrs uint64
	// ProfiledInstrs counts every functional instruction the pass
	// executed, warmup skip included (the profiling cost).
	ProfiledInstrs uint64
	// Blocks is the number of distinct static basic blocks observed.
	Blocks int
	// Intervals lists the window's intervals in execution order.
	Intervals []Interval
}

// bbvAccum collects one interval's raw features: per-block instruction
// counts plus the memory-locality counters behind the memDims features.
type bbvAccum struct {
	counts map[int]uint64 // block leader PC -> instructions executed in block

	loads, stores uint64
	lines         map[uint64]bool // cache lines touched this interval
	newLines      uint64          // ... of which never touched before
}

func (a *bbvAccum) add(leader int, n uint64) {
	if n == 0 {
		return
	}
	if a.counts == nil {
		a.counts = make(map[int]uint64)
	}
	a.counts[leader] += n
}

// touch records one data access for the locality features. globalLines is
// the profile-wide touched-line set (shared across intervals).
func (a *bbvAccum) touch(addr uint64, isLoad bool, globalLines map[uint64]bool) {
	if isLoad {
		a.loads++
	} else {
		a.stores++
	}
	line := addr >> 6
	if a.lines == nil {
		a.lines = make(map[uint64]bool)
	}
	a.lines[line] = true
	if !globalLines[line] {
		globalLines[line] = true
		a.newLines++
	}
}

// project folds the raw features into a vecDim-dimensional vector,
// normalized by the interval length: projDim randomly-projected BBV
// dimensions followed by the memDims locality rates. Blocks are visited
// in sorted-PC order so the floating-point summation order — and
// therefore the bit pattern of the result — is deterministic.
func (a *bbvAccum) project(seed uint64, intervalLen uint64) []float64 {
	vec := make([]float64, vecDim)
	if intervalLen == 0 {
		return vec
	}
	pcs := make([]int, 0, len(a.counts))
	for pc := range a.counts {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		w := float64(a.counts[pc]) / float64(intervalLen)
		h := splitmix64(seed ^ uint64(pc)*0x9e3779b97f4a7c15)
		for d := 0; d < projDim; d++ {
			h = splitmix64(h)
			vec[d] += w * (2*unitFloat(h) - 1) // per-(block, dim) weight in [-1, 1)
		}
	}
	il := float64(intervalLen)
	vec[projDim+0] = float64(a.loads) / il
	vec[projDim+1] = float64(a.stores) / il
	vec[projDim+2] = float64(len(a.lines)) / il * 8 // lines/instr is small; ×8 puts it on the BBV scale
	vec[projDim+3] = float64(a.newLines) / il * 8
	return vec
}

// ProfileProgram runs the functional emulator over prog and collects the
// BBV profile of the measurement window [warmup, warmup+window): per
// interval of cfg.IntervalInstrs committed instructions, how many
// instructions were spent in each static basic block. A basic block is
// identified by its leader PC — the target of the control transfer that
// entered it — which is exactly the granularity the SimPoint methodology
// clusters on. Profiling needs no cache, TLB or predictor model: it is a
// pure arch.State walk, two orders of magnitude cheaper than detailed
// simulation.
//
// data is the program's initial memory image, which the walk consumes (the
// program's stores land in it). If the program halts before the window
// ends, the profile covers the instructions that exist; if it halts
// before the window starts, an error is returned (there is nothing to
// sample).
func ProfileProgram(prog *isa.Program, data *isa.Memory, warmup, window uint64, cfg Config) (*Profile, error) {
	cfg = cfg.WithDefaults()
	if window == 0 {
		return nil, fmt.Errorf("simpoint: zero-length measurement window")
	}
	var st arch.State
	for st.Instrs < warmup && !st.Halted {
		st.Step(prog, data)
	}
	if st.Halted {
		return nil, fmt.Errorf("simpoint: program halted after %d instructions, before the %d-instruction warmup boundary", st.Instrs, warmup)
	}

	p := &Profile{Config: cfg, WarmupInstrs: warmup}
	end := warmup + window
	var (
		acc         bbvAccum
		leader      = st.PC // first block of the window
		blockLen    uint64
		ivStart     = st.Instrs
		globalLines = make(map[uint64]bool)
		seen        = make(map[int]bool)
		noteBlock   = func(pc int) {
			if !seen[pc] {
				seen[pc] = true
				p.Blocks++
			}
		}
	)
	noteBlock(leader)
	closeInterval := func() {
		acc.add(leader, blockLen)
		blockLen = 0
		length := st.Instrs - ivStart
		p.Intervals = append(p.Intervals, Interval{
			Start: ivStart,
			Len:   length,
			Vec:   acc.project(cfg.Seed, length),
		})
		acc = bbvAccum{}
		ivStart = st.Instrs
	}
	for st.Instrs < end && !st.Halted {
		info := st.Step(prog, data)
		blockLen++
		if info.Mem {
			acc.touch(info.Addr, info.IsLoad, globalLines)
		}
		if info.Branch {
			// The branch ends its block; the next instruction (taken
			// target or fall-through) leads a new one.
			acc.add(leader, blockLen)
			blockLen = 0
			leader = st.PC
			noteBlock(leader)
		}
		if st.Instrs-ivStart >= cfg.IntervalInstrs || st.Halted || st.Instrs >= end {
			closeInterval()
			leader = st.PC
		}
	}
	p.WindowInstrs = st.Instrs - warmup
	p.ProfiledInstrs = st.Instrs
	if len(p.Intervals) == 0 {
		return nil, fmt.Errorf("simpoint: empty profile (window %d, interval %d)", window, cfg.IntervalInstrs)
	}
	return p, nil
}
