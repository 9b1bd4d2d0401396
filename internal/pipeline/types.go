package pipeline

import (
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
)

// entryState tracks an instruction's progress through the backend.
type entryState uint8

const (
	stWaiting   entryState = iota // in IQ, operands not ready / delayed
	stExecuting                   // issued, completes at doneAt
	stDone                        // result bound (register-writing value final)
)

// oblState is the Obl-Ld execution state machine (§V-C2, the 4-bit
// "Obl-Ld State" load-queue field of §VI-A).
type oblState uint8

const (
	oblNone       oblState = iota // not an Obl-Ld
	oblInFlight                   // issued; waiting for wait-buffer responses (before B)
	oblComplete                   // B reached before C; waiting to become safe
	oblSafeWaitB                  // C reached before B; validation issued; waiting for B (or D)
	oblValidating                 // safe, success, validation in flight (waiting D)
	oblResolved                   // fully resolved (validated / exposed / squash applied)
)

// squashCause labels squash statistics.
type squashCause uint8

const (
	sqBranch squashCause = iota
	sqMemOrder
	sqOblFail
	sqValidation
	sqConsistency
	sqTLB
	sqFPFail
	numSquashCauses
)

var squashCauseNames = [numSquashCauses]string{
	"branch", "mem-order", "obl-fail", "validation", "consistency", "tlb", "fp-fail",
}

// operand is one renamed source: either the committed register file value
// (producer < 0) or the output of the in-flight producer with that
// sequence number.
type operand struct {
	reg      isa.Reg
	producer int64 // -1 when the value comes from the committed regfile
}

// static is one decoded program instruction: New decodes the program into a
// table of these once, so fetch and rename read the class, the source
// registers and the issue-queue need from a row instead of deriving them per
// dynamic instruction.
type static struct {
	in      isa.Instr
	class   isa.Class
	nSrc    uint8
	nNeed   uint8 // leading sources that must be ready to issue (memory ops: the address only)
	needsIQ bool
	src     [2]isa.Reg
}

// decode builds prog's static table. A trailing Halt row serves every pc
// outside the program, as isa.Program.At does.
func decode(prog *isa.Program) []static {
	code := make([]static, prog.Len()+1)
	for pc := range code {
		in := prog.At(pc)
		st := &code[pc]
		st.in, st.class = in, in.Op.Class()
		st.needsIQ = in.Op != isa.OpNop && in.Op != isa.OpHalt && in.Op != isa.OpFlush && in.Op != isa.OpJmp
		srcs := in.SrcRegs(st.src[:0])
		st.nSrc = uint8(len(srcs))
		if st.nNeed = st.nSrc; st.class&(isa.ClassLoad|isa.ClassStore) != 0 {
			st.nNeed = 1 // the AGU needs only the address; store data binds later
		}
	}
	return code
}

// robEntry is one in-flight instruction. It embeds the load/store-queue
// fields (the §VI-A extensions included) since LQ/SQ entries correspond
// 1:1 with their ROB entries. Field order is layout: what issue, complete
// and the frontier scan read every cycle comes first. What only Obl-Lds,
// SDO FP operations and conditional branches read lives in the core's side
// ring (robSide), so the ring every stage walks stays small.
type robEntry struct {
	seq    uint64
	doneAt uint64 // valid when state >= stExecuting
	// Issue-queue wake-up links, seqs with 0 = none (seqs start at 1).
	waitOn   uint64 // in-flight producer this waiting entry hangs on (0: it is in c.ready)
	waitHead uint64 // first entry hanging on this one
	waitNext uint64 // next waiter of waitOn
	src      [2]operand
	pc       int
	row      uint32 // the instruction's row in the static table (Core.instr)

	// Copied from the row: what the stages dispatch on.
	class isa.Class
	op    isa.Op
	rd    isa.Reg
	nSrc  uint8
	nNeed uint8

	state entryState
	obl   oblState

	hasDest       bool
	resolved      bool // branch outcome computed
	effectApplied bool // resolution effects (squash/train) performed
	pendingSq     bool // Pending Squash bit (§VI-A): squash when safe
	fpSDO         bool // executed on the predicted fast path with tainted args
	addrValid     bool
	sqDataReady   bool
	memLevel      mem.Level
	specFill      bool // load filled the speculative shadow (promote at commit)

	// Destination (merged rename: value lives in the ROB entry).
	destVal  uint64
	destRoot uint64 // YRoT: 0 = untainted
	prevProd int64  // previous producer of the destination, for squash repair

	// Memory bookkeeping.
	addr      uint64
	addrRoot  uint64 // taint root of the address operands
	sqData    uint64 // store: value to write
	sqForward int64  // load: seq of forwarding store, -1 if from memory
	// STT transmitter-delay accounting: cycle of the first taint stall (0 = never).
	delayedSince uint64
}

// robSide is the cold half of a ROB entry: side[i] belongs to rob[i]. Rename
// claims it for loads and conditional branches, and an SDO FP issue for its
// operation; no other entry reads it.
type robSide struct {
	seq uint64 // the entry that last claimed this slot

	// Branch bookkeeping.
	predTarget   int
	actualTarget int
	bpSnap       bpred.Snapshot

	// Obl-Ld state machine (§V-C2 / §VI-A fields).
	oblRes      mem.OblResult
	valDone     uint64 // D: validation completion cycle
	valSnapshot uint64 // value the Obl-Ld forwarded (compared at D)

	oblPred       mem.Level // predicted level ("Actual Level" trains the predictor)
	valLevel      mem.Level // level the validation found data in
	oblTLBOK      bool      // L1 TLB probe hit (⊥ translation forces fail)
	exposure      bool      // §VI-A Validation/Exposure bit
	valInFlight   bool
	oblDropped    bool // fail revealed while safe; waiting for the validation
	oblMemDelayed bool // SDO predicted DRAM: delayed until safe (§VI-B2); implies delayedSince != 0
	pendingInval  bool // line invalidated while speculative (§V-C1)

	predTaken    bool
	actualTaken  bool
	mispredicted bool

	fpFail bool // SDO FP operation: args turned out subnormal, squash when safe
}

// oblItem is one running Obl-Ld on c.obls with the cycle its state machine
// next has something to do at (stepOblAll).
type oblItem struct {
	seq  uint64
	wake uint64
}

func (e *robEntry) is(cl isa.Class) bool { return e.class&cl != 0 }
func (e *robEntry) isCond() bool         { return e.is(isa.ClassCondBranch) }
func (e *robEntry) isLoad() bool         { return e.is(isa.ClassLoad) }
func (e *robEntry) isStore() bool        { return e.is(isa.ClassStore) }

// ring is a fixed-capacity FIFO, the allocation-free form of q = q[1:] plus
// append. The owner enforces the occupancy limit; the buffer is rounded up
// to a power of two so indexing is a mask.
type ring[T any] struct {
	buf     []T
	head, n int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, ceilPow2(capacity))} }

func ceilPow2(n int) int { return 1 << bits.Len(uint(max(n, 1)-1)) }

func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }
func (r *ring[T]) push(v T)    { *r.at(r.n) = v; r.n++ }
func (r *ring[T]) pop()        { r.head = (r.head + 1) & (len(r.buf) - 1); r.n-- }

// Stats aggregates everything the experiment harness reads. All counters
// are cumulative over a run.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64

	Squashes       [numSquashCauses]uint64
	SquashedInstrs uint64
	BranchesResolved,
	BranchMispredicts uint64

	Loads, Stores uint64

	// STT delay accounting.
	DelayedLoads        uint64 // loads that ever stalled on a tainted address
	LoadDelayCycles     uint64 // total cycles loads spent taint-stalled
	DelayedFPs          uint64
	FPDelayCycles       uint64
	DelayedResolutions  uint64 // branch resolutions parked on tainted predicates
	PendingSquashDelays uint64 // squashes parked until untaint (implicit-channel rule)

	// SDO accounting.
	OblIssued       uint64
	OblSuccess      uint64
	OblFail         uint64
	OblPredMem      uint64 // predicted-DRAM loads delayed until safe (§VI-B2)
	OblTLBMiss      uint64 // Obl-Lds with ⊥ translation (§V-B)
	OblEarlyForward uint64 // early wait-buffer forwards (§V-C2 optimisation)
	Validations     uint64
	Exposures       uint64
	ValidationStall uint64 // commit-blocked cycles waiting for validations
	FPSDOIssued     uint64
	FPSDOFail       uint64
	// FPSlowPathExecs counts FP executions that actually took the
	// operand-dependent slow path (the timing channel). SDO and STT{ld+fp}
	// keep this at zero for speculatively-accessed operands.
	FPSlowPathExecs uint64

	// Location-predictor quality (Table III): counted per resolved Obl-Ld.
	PredPrecise    uint64 // predicted == actual
	PredImprecise  uint64 // predicted > actual (success, slower than needed)
	PredInaccurate uint64 // predicted < actual (fail)
	// ImprecisionCycles sums latency(predicted)-latency(actual) over
	// imprecise successes (feeds the Figure 7 breakdown).
	ImprecisionCycles uint64

	Halted bool
}

// SquashesByCause returns a map of cause name to count.
func (s *Stats) SquashesByCause() map[string]uint64 {
	m := make(map[string]uint64, numSquashCauses)
	for c, n := range s.Squashes {
		m[squashCauseNames[c]] = n
	}
	return m
}

// SquashesFor returns the squash count of one cause, named as
// SquashesByCause names it (0 for a name no cause has), without building
// the map.
func (s *Stats) SquashesFor(cause string) uint64 {
	for c, name := range squashCauseNames {
		if name == cause {
			return s.Squashes[c]
		}
	}
	return 0
}

// TotalSquashes sums all squash causes.
func (s *Stats) TotalSquashes() uint64 {
	var t uint64
	for _, n := range s.Squashes {
		t += n
	}
	return t
}

// Sub returns s - base, counter-wise: the statistics accrued strictly
// after base was captured. Used to exclude cache-warmup from measurement.
func (s Stats) Sub(base Stats) Stats {
	d := s
	d.Cycles -= base.Cycles
	d.Committed -= base.Committed
	d.Fetched -= base.Fetched
	for i := range d.Squashes {
		d.Squashes[i] -= base.Squashes[i]
	}
	d.SquashedInstrs -= base.SquashedInstrs
	d.BranchesResolved -= base.BranchesResolved
	d.BranchMispredicts -= base.BranchMispredicts
	d.Loads -= base.Loads
	d.Stores -= base.Stores
	d.DelayedLoads -= base.DelayedLoads
	d.LoadDelayCycles -= base.LoadDelayCycles
	d.DelayedFPs -= base.DelayedFPs
	d.FPDelayCycles -= base.FPDelayCycles
	d.DelayedResolutions -= base.DelayedResolutions
	d.PendingSquashDelays -= base.PendingSquashDelays
	d.OblIssued -= base.OblIssued
	d.OblSuccess -= base.OblSuccess
	d.OblFail -= base.OblFail
	d.OblPredMem -= base.OblPredMem
	d.OblTLBMiss -= base.OblTLBMiss
	d.OblEarlyForward -= base.OblEarlyForward
	d.Validations -= base.Validations
	d.Exposures -= base.Exposures
	d.ValidationStall -= base.ValidationStall
	d.FPSDOIssued -= base.FPSDOIssued
	d.FPSDOFail -= base.FPSDOFail
	d.FPSlowPathExecs -= base.FPSlowPathExecs
	d.PredPrecise -= base.PredPrecise
	d.PredImprecise -= base.PredImprecise
	d.PredInaccurate -= base.PredInaccurate
	d.ImprecisionCycles -= base.ImprecisionCycles
	return d
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
