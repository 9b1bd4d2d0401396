package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Scheme is a pluggable speculative-execution protection policy. The
// core consults it at exactly the points the paper's defenses diverge:
//
//   - IssueLoad: what a load does when it leaves the issue queue
//     (normal fill, STT delay, SDO Obl-Ld, shadow fill, ...).
//   - IssueTaintedFP: what a tainted FP transmitter does (delay, SDO
//     fast-path, or nothing special).
//   - TracksTaint: whether STT's taint rules apply — the store-queue
//     tainted-address rule and the implicit-channel parking of branch
//     resolutions and memory-order/consistency squashes.
//   - SpecMode: whether the memory system must interpose shadow
//     structures (mem/spec.go); non-SpecOff schemes require the port to
//     implement SpecMemPort.
//   - OnCommit / OnSquash: retirement and recovery hooks (promote or
//     discard shadow fills). Called only when SpecMode is active, so
//     legacy schemes pay a single bool test.
//
// Schemes are stateless singletons: per-run state lives in the Core and
// the memory system, so one Scheme value is safely shared by concurrent
// simulations.
//
// The event-driven stage loop holds every scheme to two rules. (1) No side
// effect on an unready operand: while the address source (or any FP source)
// is still in flight the instruction hangs on that producer's waiter list and
// issue does not visit it at all — IssueLoad and IssueTaintedFP are first
// called the cycle the last such source binds — so a scheme must not count on
// being polled before then. (2) An attempt
// that returns false may only set e.delayedSince (once, with its Delayed* /
// OblPredMem counter), tick LoadDelayCycles / FPDelayCycles, or do something
// idempotent (LocPred.Predict evicting a slot): Core.Run skips spans of
// cycles in which every attempt fails the same way and bulk-adds exactly
// those two counters.
type Scheme interface {
	// Name is the scheme's display name (matches the core registry).
	Name() string
	// TracksTaint reports whether STT taint tracking gates the
	// store-queue search and the implicit-channel squash/resolution
	// machinery.
	TracksTaint() bool
	// SpecMode selects the memory system's speculative-visibility mode.
	SpecMode() mem.SpecMode
	// IssueLoad issues a load whose address just resolved (e.addr,
	// e.addrValid, e.addrRoot are set). It returns true when the load
	// left the issue queue this cycle.
	IssueLoad(c *Core, e *robEntry) bool
	// IssueTaintedFP handles an FP transmitter with tainted operands.
	// handled=false means the scheme has no special rule and the normal
	// (operand-dependent latency) path runs; otherwise issued reports
	// whether the instruction issued this cycle.
	IssueTaintedFP(c *Core, e *robEntry, vals [2]uint64, root uint64) (issued, handled bool)
	// OnCommit runs as an instruction retires (before head advances).
	OnCommit(c *Core, e *robEntry)
	// OnSquash runs after a squash discarded every seq >= from.
	OnSquash(c *Core, from uint64)
}

// SpecMemPort is the optional port extension schemes with an active
// SpecMode need: *mem.Hierarchy and *coherence.Core both implement it.
type SpecMemPort interface {
	SetSpecMode(m mem.SpecMode)
	SpecTranslate(now uint64, addr uint64, seq uint64) (done uint64, hit bool)
	SpecLoad(now uint64, addr uint64, seq uint64) mem.AccessResult
	CommitSpec(addr uint64, seq uint64)
	SquashSpec(from uint64)
}

// The built-in schemes. SchemeUnsafe/SchemeSTT/SchemeSDO are the paper's
// Table II configurations (STT delays tainted transmitters; STT+SDO
// executes them as Obl-Lds / fixed-latency FP ops); SchemeSafeSpec and
// SchemeSpecBox are the shadow-structure defenses layered on
// mem/spec.go.
var (
	SchemeUnsafe   Scheme = schemeUnsafe{}
	SchemeSTT      Scheme = schemeSTT{}
	SchemeSDO      Scheme = schemeSDO{}
	SchemeSafeSpec Scheme = schemeShadow{name: "SafeSpec", mode: mem.SpecShadow}
	SchemeSpecBox  Scheme = schemeShadow{name: "SpecBox", mode: mem.SpecLabel}
)

// --- Unsafe: the unmodified insecure processor ---

type schemeUnsafe struct{}

func (schemeUnsafe) Name() string           { return "Unsafe" }
func (schemeUnsafe) TracksTaint() bool      { return false }
func (schemeUnsafe) SpecMode() mem.SpecMode { return mem.SpecOff }

func (schemeUnsafe) IssueLoad(c *Core, e *robEntry) bool { return c.issueNormalLoad(e) }

func (schemeUnsafe) IssueTaintedFP(*Core, *robEntry, [2]uint64, uint64) (bool, bool) {
	return false, false
}
func (schemeUnsafe) OnCommit(*Core, *robEntry) {}
func (schemeUnsafe) OnSquash(*Core, uint64)    {}

// --- STT: delay tainted transmitters until their operands untaint ---

type schemeSTT struct{}

func (schemeSTT) Name() string           { return "STT" }
func (schemeSTT) TracksTaint() bool      { return true }
func (schemeSTT) SpecMode() mem.SpecMode { return mem.SpecOff }

func (schemeSTT) IssueLoad(c *Core, e *robEntry) bool {
	if c.tainted(e.addrRoot) {
		if e.delayedSince == 0 {
			e.delayedSince = c.cycle
			c.stats.DelayedLoads++
		}
		c.stats.LoadDelayCycles++
		return false
	}
	return c.issueNormalLoad(e)
}

func (schemeSTT) IssueTaintedFP(c *Core, e *robEntry, _ [2]uint64, _ uint64) (bool, bool) {
	// STT{ld+fp}: delay the transmitter until its operands untaint.
	if e.delayedSince == 0 {
		e.delayedSince = c.cycle
		c.stats.DelayedFPs++
	}
	c.stats.FPDelayCycles++
	return false, true
}

func (schemeSTT) OnCommit(*Core, *robEntry) {}
func (schemeSTT) OnSquash(*Core, uint64)    {}

// --- STT+SDO: execute tainted transmitters as DO operations ---

type schemeSDO struct{}

func (schemeSDO) Name() string           { return "STT+SDO" }
func (schemeSDO) TracksTaint() bool      { return true }
func (schemeSDO) SpecMode() mem.SpecMode { return mem.SpecOff }

func (schemeSDO) IssueLoad(c *Core, e *robEntry) bool {
	if !c.tainted(e.addrRoot) {
		return c.issueNormalLoad(e)
	}
	// SDO: predict a level and issue an Obl-Ld.
	pred := c.cfg.LocPred.Predict(c.pcAddr(e.pc), e.addr)
	if pred == mem.LevelNone {
		pred = mem.LevelMem
	}
	if pred == mem.LevelMem && c.cfg.OblDRAMVariant {
		// Ablation: the architected DO DRAM variant (§VI-B2).
		return c.issueOblLoad(e, mem.LevelMem)
	}
	if pred == mem.LevelMem {
		// §VI-B2: predicted-DRAM loads revert to STT delay.
		if e.delayedSince == 0 {
			e.delayedSince = c.cycle
			c.side(e.seq).oblMemDelayed = true
			c.stats.OblPredMem++
		}
		c.stats.LoadDelayCycles++
		return false
	}
	return c.issueOblLoad(e, pred)
}

func (schemeSDO) IssueTaintedFP(c *Core, e *robEntry, vals [2]uint64, root uint64) (bool, bool) {
	if c.fpPortsBusy >= c.cfg.FPUnits {
		return false, true
	}
	c.fpPortsBusy++
	// §I-A: statically predict "normal" and execute the fast DO
	// variant. The operation fails if the operands/result are
	// actually subnormal; resolution happens once args untaint.
	e.destVal = isa.EvalALU(*c.instr(e), vals[0], vals[1], c.cycle)
	e.destRoot = root
	e.fpSDO = true
	c.fps = insertSeq(c.fps, e.seq)
	s := c.side(e.seq)
	s.seq = e.seq
	s.fpFail = isa.FPSlowPath(e.op, vals[0], vals[1], e.destVal)
	e.doneAt = c.cycle + opLatency(e.op, vals[0], vals[1], e.destVal, true)
	e.state = stExecuting
	c.stats.FPSDOIssued++
	if c.obs.On(obs.ClassFP) {
		c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassFP, Kind: "fp-sdo-issue",
			Seq: e.seq, PC: e.pc, Dur: e.doneAt - c.cycle,
			Detail: fmt.Sprintf("seq=%d pc=%d %v will-fail=%v", e.seq, e.pc, *c.instr(e), s.fpFail)})
	}
	return true, true
}

func (schemeSDO) OnCommit(*Core, *robEntry) {}
func (schemeSDO) OnSquash(*Core, uint64)    {}

// --- SafeSpec / SpecBox: shadow-structure defenses ---

// schemeShadow covers both shadow-structure schemes; they differ only in
// the SpecMode the memory system runs under (bounded shadow cache + TLB
// for SafeSpec, unbounded labelled lines with a normal TLB for SpecBox).
// Neither tracks taint: every load executes immediately, but its fill is
// invisible to probes and to other cores until the load retires.
type schemeShadow struct {
	name string
	mode mem.SpecMode
}

func (s schemeShadow) Name() string           { return s.name }
func (schemeShadow) TracksTaint() bool        { return false }
func (s schemeShadow) SpecMode() mem.SpecMode { return s.mode }

func (schemeShadow) IssueLoad(c *Core, e *robEntry) bool { return c.issueSpecLoad(e) }

func (schemeShadow) IssueTaintedFP(*Core, *robEntry, [2]uint64, uint64) (bool, bool) {
	return false, false
}

func (schemeShadow) OnCommit(c *Core, e *robEntry) {
	if e.specFill {
		c.specPort.CommitSpec(e.addr, e.seq)
	}
}

func (schemeShadow) OnSquash(c *Core, from uint64) { c.specPort.SquashSpec(from) }
