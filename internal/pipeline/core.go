package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Core is one simulated out-of-order core executing a program against a
// memory image and a memory-system port.
type Core struct {
	cfg  Config
	prog *isa.Program
	data *isa.Memory
	port MemPort
	bp   *bpred.Predictor

	scheme      Scheme      // active protection scheme (never nil)
	schemeTaint bool        // cached scheme.TracksTaint()
	specPort    SpecMemPort // non-nil when specActive
	specActive  bool        // scheme.SpecMode() != SpecOff

	regs      [isa.NumRegs]uint64
	renameMap [isa.NumRegs]int64 // producer seq, -1 = committed regfile

	rob     []robEntry // ring of 2ⁿ ≥ ROBSize slots indexed by seq&(len-1)
	headSeq uint64     // oldest live seq
	tailSeq uint64     // next seq to allocate
	ready   []uint64   // issue queue, ready set: one bit per ROB ring slot (exec.go "enqueue")
	iqN     int        // issue-queue occupancy: live stWaiting entries, ready or hanging on a producer
	lq, sq  ring[uint64]
	parked  []parkedSquash

	// Work lists: the seqs each stage walks instead of scanning the ROB
	// (DESIGN.md "cost model"); squash trims them, CheckInvariants recomputes them.
	exec   []uint64 // executing non-store, non-Obl ops (unordered)
	stData []uint64 // stores with an address still waiting for data (unordered)
	brs    []uint64 // conditional branches without effectApplied (age-ordered)
	fps    []uint64 // fpSDO ops without effectApplied (age-ordered)
	obls   []uint64 // Obl-Lds whose state machine is still running (age-ordered)

	frontierDirty uint64     // oldest seq that may have started blocking the frontier (noSeq: none)
	nextDone      uint64     // earliest doneAt left in exec (noSeq: none)
	changed       bool       // a stage altered more than per-cycle counters since run cleared it
	memCfg        mem.Config // latency table for the Table III / Figure 7 accounting

	fpPortsBusy,
	intPortsBusy,
	memPortsBusy int

	fetchPC         int
	fetchHalted     bool
	fetchStallUntil uint64
	fetchLine       uint64          // last I-cache line fetched (0 = none yet)
	fetchBuf        ring[fetchSlot] // holds at most 2*Width slots

	obs *obs.Recorder
	chk []uint64 // CheckInvariants scratch: a bitset over ROB ring slots

	cycle           uint64
	frontier        uint64
	lastCommitCycle uint64
	halted          bool

	stats    Stats
	interval intervalState
}

const noSeq = ^uint64(0) // "no such seq / cycle" sentinel

// parkedSquash is a squash whose application is delayed until its predicate
// untaints (STT's resolution-based implicit channel rule).
type parkedSquash struct {
	from    uint64 // squash everything >= from
	root    uint64 // apply once root < frontier (or, with vpSelf, once frontier >= from)
	vpSelf  bool   // the predicate is the squashed load's own visibility point
	cause   squashCause
	refetch int
}

type fetchSlot struct {
	pc         int
	in         isa.Instr
	predTaken  bool
	predTarget int
	snap       bpred.Snapshot
}

// New builds a core. prog is the program, data the architectural memory
// (shared with the functional golden model's semantics), port the memory
// system.
func New(cfg Config, prog *isa.Program, data *isa.Memory, port MemPort) *Core {
	if cfg.Width <= 0 || cfg.Scheme == nil {
		panic("pipeline: config must come from DefaultConfig")
	}
	if _, sdo := cfg.Scheme.(schemeSDO); sdo && cfg.LocPred == nil {
		panic("pipeline: scheme " + cfg.Scheme.Name() + " requires a location predictor")
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 200_000
	}
	c := &Core{
		cfg:    cfg,
		prog:   prog,
		data:   data,
		port:   port,
		bp:     bpred.New(cfg.BP),
		scheme: cfg.Scheme,
		memCfg: hierCfgOf(port),

		rob:      make([]robEntry, ceilPow2(cfg.ROBSize)),
		ready:    make([]uint64, max(1, ceilPow2(cfg.ROBSize)/64)),
		lq:       newRing[uint64](cfg.LQSize),
		sq:       newRing[uint64](cfg.SQSize),
		parked:   make([]parkedSquash, 0, cfg.LQSize),
		fetchBuf: newRing[fetchSlot](2 * cfg.Width),
		exec:     make([]uint64, 0, cfg.ROBSize),
		stData:   make([]uint64, 0, cfg.SQSize),
		brs:      make([]uint64, 0, cfg.ROBSize),
		fps:      make([]uint64, 0, cfg.ROBSize),
		obls:     make([]uint64, 0, cfg.LQSize),
	}
	c.frontierDirty, c.nextDone = noSeq, noSeq
	c.schemeTaint = c.scheme.TracksTaint()
	if m := c.scheme.SpecMode(); m != mem.SpecOff {
		sp, ok := port.(SpecMemPort)
		if !ok {
			panic(fmt.Sprintf("pipeline: scheme %s needs a SpecMemPort; %T does not implement it",
				c.scheme.Name(), port))
		}
		sp.SetSpecMode(m)
		c.specPort = sp
		c.specActive = true
	}
	for i := range c.renameMap {
		c.renameMap[i] = -1
	}
	c.headSeq, c.tailSeq = 1, 1
	c.frontier = 1
	if h, ok := port.(*mem.Hierarchy); ok {
		h.OnInvalidate = c.onInvalidate
	}
	return c
}

// SetInvalidateHook registers the core's consistency-snoop handler on a
// hierarchy that is not directly the port (e.g. a coherence.Core wrapper).
func (c *Core) SetInvalidateHook(h *mem.Hierarchy) { h.OnInvalidate = c.onInvalidate }

// Regs returns the committed architectural registers.
func (c *Core) Regs() [isa.NumRegs]uint64 { return c.regs }

// Predictor exposes the core's branch predictor (warmup checkpoint
// capture/restore and tests).
func (c *Core) Predictor() *bpred.Predictor { return c.bp }

// RestoreArch seeds the core's committed architectural state from a
// functional-warmup checkpoint: committed registers and the PC fetch
// resumes from. It must be called before the first Step. halted marks a
// program that already committed its halt during warmup; the core then
// starts (and stays) halted.
func (c *Core) RestoreArch(regs [isa.NumRegs]uint64, pc int, halted bool) {
	c.regs = regs
	c.fetchPC = pc
	if halted {
		c.halted = true
		c.fetchHalted = true
	}
}

// Stats returns the statistics gathered so far.
func (c *Core) Stats() Stats { return c.stats }

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted reports whether the program has committed its halt.
func (c *Core) Halted() bool { return c.halted }

// entry returns the ROB entry for a live seq.
func (c *Core) entry(seq uint64) *robEntry { return &c.rob[seq&uint64(len(c.rob)-1)] }

func (c *Core) live(seq uint64) bool { return seq >= c.headSeq && seq < c.tailSeq }

// slotBit locates seq's ROB ring slot in a bitmap over slots (c.ready).
func (c *Core) slotBit(seq uint64) (word, bit uint64) {
	pos := seq & uint64(len(c.rob)-1)
	return pos >> 6, 1 << (pos & 63)
}

// pcAddr synthesises the byte address of an instruction index, feeding the
// branch predictor and I-cache.
func (c *Core) pcAddr(pc int) uint64 { return c.cfg.CodeBase + uint64(pc)*8 }

// Run simulates until halt or until a configured bound is hit, returning
// the final statistics.
func (c *Core) Run() (Stats, error) {
	if err := c.run(c.cfg.MaxInstrs, c.cfg.MaxCycles); err != nil {
		return c.stats, err
	}
	c.stats.Halted = c.halted
	return c.stats, nil
}

// RunUntilCommitted simulates until n instructions have committed (or the
// program halts), on the same stall-skipping loop as Run but ignoring
// Config.MaxInstrs/MaxCycles: the detailed warm-up entry point.
func (c *Core) RunUntilCommitted(n uint64) error { return c.run(n, 0) }

// run is Step in a loop plus stall skip-ahead: a cycle that left changed
// clear repeats exactly until a time-dependent condition flips. Skipping
// starts at the second such cycle in a row: the first may have had an
// idempotent hidden effect (Hybrid.Predict evicting a slot).
func (c *Core) run(maxInstrs, maxCycles uint64) error {
	idle := 0
	for !c.halted && (maxCycles == 0 || c.cycle < maxCycles) && (maxInstrs == 0 || c.stats.Committed < maxInstrs) {
		c.changed = false
		before := c.tickCounters()
		if err := c.Step(); err != nil {
			return err
		}
		if c.changed {
			idle = 0
		} else if idle++; idle >= 2 {
			c.skipAhead(before, maxCycles)
		}
	}
	return nil
}

// tickCounters returns the statistics an all-stalled cycle still ticks.
func (c *Core) tickCounters() [3]uint64 {
	return [3]uint64{c.stats.LoadDelayCycles, c.stats.FPDelayCycles, c.stats.ValidationStall}
}

// skipAhead jumps from an all-stalled cycle to just before the first cycle
// at which anything can differ, bulk-adding what each skipped cycle ticks:
// the stalled cycle's own deltas since before, and interval occupancy.
func (c *Core) skipAhead(before [3]uint64, maxCycles uint64) {
	next := c.nextDone
	bound := func(t uint64) {
		if t > c.cycle && t < next {
			next = t
		}
	}
	bound(c.fetchStallUntil)
	bound(c.lastCommitCycle + c.cfg.WatchdogCycles + 1)
	if maxCycles > 0 {
		bound(maxCycles + 1)
	}
	if c.cfg.Check != nil {
		bound((c.cycle | (checkInterval - 1)) + 1)
	}
	if c.interval.every != 0 {
		bound(c.interval.lastCycle + c.interval.every)
	}
	for _, seq := range c.obls {
		e := c.entry(seq)
		bound(e.oblRes.Done)
		bound(e.oblRes.EarlyDone)
		bound(e.valDone)
	}
	k := next - 1 - c.cycle
	c.cycle += k
	c.stats.Cycles = c.cycle
	after := c.tickCounters()
	c.stats.LoadDelayCycles += k * (after[0] - before[0])
	c.stats.FPDelayCycles += k * (after[1] - before[1])
	c.stats.ValidationStall += k * (after[2] - before[2])
	if c.interval.every != 0 {
		c.sampleInterval(k)
	}
}

// checkInterval is how often (in cycles) Step polls Config.Check. A
// power of two so the test is one mask; ~4k cycles keeps wall-clock
// deadline and cancellation checks responsive at simulation speeds of
// millions of cycles per second while staying invisible in profiles.
const checkInterval = 4096

// Step advances the core by one cycle.
func (c *Core) Step() error {
	c.cycle++
	if c.cfg.Check != nil && c.cycle&(checkInterval-1) == 0 {
		if err := c.cfg.Check(c.cycle, c.stats.Committed); err != nil {
			return err
		}
	}
	if c.cycle-c.lastCommitCycle > c.cfg.WatchdogCycles {
		return fmt.Errorf("pipeline: watchdog: no commit for %d cycles at cycle %d (head=%d tail=%d head instr %v)",
			c.cfg.WatchdogCycles, c.cycle, c.headSeq, c.tailSeq, c.headInstrDesc())
	}
	c.stats.Cycles = c.cycle

	c.intPortsBusy, c.fpPortsBusy, c.memPortsBusy = 0, 0, 0

	c.commit()
	c.completeExecution()
	c.resolve() // frontier, branch/SDO resolution, parked squashes
	c.issue()
	c.rename()
	c.fetch()
	if c.interval.every != 0 {
		c.sampleInterval(1)
	}
	return nil
}

func (c *Core) headInstrDesc() string {
	if c.headSeq >= c.tailSeq {
		return "<empty ROB>"
	}
	e := c.entry(c.headSeq)
	return fmt.Sprintf("%v (state=%d obl=%d pc=%d)", e.in, e.state, e.obl, e.pc)
}

// --- Fetch ---

func (c *Core) fetch() {
	if c.fetchHalted || c.cycle < c.fetchStallUntil {
		return
	}
	fetched := 0
	for fetched < c.cfg.Width && c.fetchBuf.n < 2*c.cfg.Width {
		c.changed = true
		addr := c.pcAddr(c.fetchPC)
		line := mem.LineAddr(addr)
		if line != c.fetchLine {
			r := c.port.FetchAccess(c.cycle, addr)
			c.fetchLine = line
			if r.Level != mem.L1 {
				// I-cache miss: fetch stalls until the line arrives.
				c.fetchStallUntil = r.Done
				return
			}
		}
		in := c.prog.At(c.fetchPC)
		slot := c.fetchBuf.at(c.fetchBuf.n) // pushed in place
		*slot = fetchSlot{pc: c.fetchPC, in: in}
		c.fetchBuf.n++
		switch {
		case in.Op == isa.OpHalt:
			c.fetchHalted = true
			c.stats.Fetched++
			return
		case in.Op == isa.OpJmp:
			slot.predTaken, slot.predTarget = true, in.Target
			c.fetchPC = in.Target
		case in.Op.IsCondBranch():
			taken, snap := c.bp.PredictDirection(addr)
			slot.predTaken, slot.snap = taken, snap
			if taken {
				slot.predTarget = in.Target
				c.fetchPC = in.Target
			} else {
				slot.predTarget = c.fetchPC + 1
				c.fetchPC++
			}
		default:
			c.fetchPC++
		}
		c.stats.Fetched++
		fetched++
	}
}

// --- Rename / dispatch ---

func (c *Core) rename() {
	for n := 0; n < c.cfg.Width && c.fetchBuf.n > 0; n++ {
		if c.tailSeq-c.headSeq >= uint64(c.cfg.ROBSize) {
			return // ROB full
		}
		slot := c.fetchBuf.at(0)
		in := slot.in
		class := in.Op.Class()
		needsIQ := in.Op != isa.OpNop && in.Op != isa.OpHalt && in.Op != isa.OpFlush && in.Op != isa.OpJmp
		if needsIQ && c.iqN >= c.cfg.IQSize ||
			class&isa.ClassLoad != 0 && c.lq.n >= c.cfg.LQSize ||
			(class&isa.ClassStore != 0 || in.Op == isa.OpFlush) && c.sq.n >= c.cfg.SQSize {
			return // a queue is full (flushes order with stores via the SQ)
		}
		c.changed = true

		seq := c.tailSeq
		c.tailSeq++
		if c.obs.On(obs.ClassRename) {
			c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassRename, Kind: "rename",
				Seq: seq, PC: slot.pc,
				Detail: fmt.Sprintf("seq=%d pc=%d %v", seq, slot.pc, slot.in)})
		}
		e := c.entry(seq)
		*e = robEntry{} // zeroed in place, then filled: no 300-byte temporary copy
		e.seq, e.pc, e.in, e.class = seq, slot.pc, in, class
		e.predTaken, e.predTarget, e.bpSnap = slot.predTaken, slot.predTarget, slot.snap
		e.sqForward, e.prevProd = -1, -1
		c.fetchBuf.pop()
		var regs [2]isa.Reg
		srcs := in.SrcRegs(regs[:0])
		e.nSrc = uint8(len(srcs))
		for i, r := range srcs {
			e.src[i] = operand{reg: r, producer: c.renameMap[r]}
		}
		if e.nNeed = e.nSrc; class&(isa.ClassLoad|isa.ClassStore) != 0 {
			e.nNeed = 1 // the AGU needs only the address; store data binds later
		}
		if class&isa.ClassWritesReg != 0 {
			e.hasDest = true
			e.prevProd = c.renameMap[in.Rd]
			c.renameMap[in.Rd] = int64(seq)
		}
		switch {
		case in.Op == isa.OpNop || in.Op == isa.OpHalt:
			e.state = stDone
		case in.Op == isa.OpJmp:
			// Direct jump with a statically-known target: resolved at
			// dispatch, never mispredicts.
			e.state = stDone
			e.resolved, e.effectApplied = true, true
			e.actualTaken, e.actualTarget = true, in.Target
		case in.Op == isa.OpFlush:
			// Flushes carry an address source; they apply at commit. The
			// address is read at commit time from the committed regfile.
			e.state = stDone
			c.sq.push(seq)
		default:
			c.iqN++
			c.enqueue(e)
		}
		switch {
		case class&isa.ClassLoad != 0:
			c.lq.push(seq)
		case class&isa.ClassStore != 0:
			c.sq.push(seq)
		case class&isa.ClassCondBranch != 0:
			c.brs = append(c.brs, seq)
		}
	}
}

// operandInfo resolves an operand's current value, readiness, and taint
// root.
func (c *Core) operandInfo(o operand) (val uint64, ready bool, root uint64) {
	if o.producer < 0 || uint64(o.producer) < c.headSeq {
		return c.regs[o.reg], true, 0
	}
	p := c.entry(uint64(o.producer))
	if p.state != stDone {
		return 0, false, p.destRoot
	}
	root = p.destRoot
	if root < c.frontier {
		root = 0
	}
	return p.destVal, true, root
}

// srcsReady reports whether all of e's sources are ready, and the max root.
func (c *Core) srcsReady(e *robEntry) (ready bool, vals [2]uint64, root uint64) {
	ready = true
	for i := 0; i < int(e.nSrc); i++ {
		v, ok, r := c.operandInfo(e.src[i])
		if !ok {
			ready = false
		}
		vals[i] = v
		if r > root {
			root = r
		}
	}
	return ready, vals, root
}

// tainted reports whether a root is still speculative under the current
// frontier. Root 0 is the untainted sentinel.
func (c *Core) tainted(root uint64) bool { return root != 0 && root >= c.frontier }
