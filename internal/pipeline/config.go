// Package pipeline implements the cycle-level, execute-driven out-of-order
// core: an 8-wide speculative pipeline with a 192-entry ROB, 32/32 load and
// store queues, register renaming, a tournament branch predictor, wrong-path
// execution and squash recovery (Table I) — extended with STT's taint
// tracking and protection rules (§III) and with SDO's Obl-Ld and
// floating-point DO operations (§V, §VI-A).
//
// The core is execute-driven: transient (doomed-to-squash) instructions
// really execute and really touch the memory-system model, which is what
// makes the in-simulator Spectre penetration test meaningful.
package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sdo"
)

// AttackModel selects the visibility point definition (§III).
type AttackModel uint8

const (
	// Spectre: an access instruction reaches its visibility point when all
	// older control-flow instructions have resolved.
	Spectre AttackModel = iota
	// Futuristic: when the access instruction can no longer be squashed by
	// any cause.
	Futuristic
)

// String names the attack model.
func (m AttackModel) String() string {
	if m == Futuristic {
		return "Futuristic"
	}
	return "Spectre"
}

// ParseAttackModel maps a model name to its attack model: the name String
// gives it, or that name in lower case.
func ParseAttackModel(name string) (AttackModel, error) {
	for _, m := range []AttackModel{Spectre, Futuristic} {
		if name == m.String() || name == strings.ToLower(m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown attack model %q", name)
}

// MemPort is the memory-system interface the core drives. *mem.Hierarchy
// (single core) and *coherence.Core (multi-core) both satisfy it.
type MemPort interface {
	Load(now uint64, addr uint64) mem.AccessResult
	Store(now uint64, addr uint64) mem.AccessResult
	OblLoad(now uint64, addr uint64, pred mem.Level) mem.OblResult
	Probe(addr uint64) mem.Level
	Flush(addr uint64)
	Translate(now uint64, addr uint64) (done uint64, hit bool)
	TLBProbe(addr uint64) bool
	FetchAccess(now uint64, addr uint64) mem.AccessResult
}

// Config parameterises one core.
type Config struct {
	Width   int // fetch/decode/issue/commit width
	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	IntALUs  int // integer units (also execute branches)
	FPUnits  int
	MemPorts int // AGU/cache ports shared by loads and stores

	// Scheme selects the protection scheme (see scheme.go; DefaultConfig
	// sets SchemeUnsafe).
	Scheme Scheme
	Model  AttackModel
	// FPTransmitters treats fmul/fdiv/fsqrt as transmitters (STT{ld+fp}
	// and all SDO configurations, per §VIII-A).
	FPTransmitters bool
	// LocPred chooses cache levels for Obl-Lds (required when Scheme is
	// SchemeSDO).
	LocPred sdo.LocationPredictor

	BP bpred.Config

	// --- Ablations (design-space studies; defaults preserve the paper's
	// STT+SDO semantics) ---

	// DisableEarlyForward turns off the §V-C2 optimisation that forwards
	// a success response from the wait buffer once the load is safe.
	DisableEarlyForward bool
	// AlwaysValidate disables InvisiSpec exposures: every resolved,
	// non-store-forwarded Obl-Ld pays a full validation before retiring.
	AlwaysValidate bool
	// NoImplicitChannelProtection applies branch resolutions and
	// memory-order/consistency squashes immediately, even with tainted
	// predicates. INSECURE — exists only to measure the cost of STT's
	// implicit-channel rules (the paper reports 1-3%).
	NoImplicitChannelProtection bool
	// OblDRAMVariant architects the DO variant for DRAM that §VI-B2
	// rejects: Mem predictions issue an Obl-Ld with a constant worst-case
	// DRAM access instead of reverting to delay.
	OblDRAMVariant bool

	// CodeBase is the synthetic byte address of instruction 0 (instruction
	// addresses feed the branch predictor and the I-cache).
	CodeBase uint64

	// WatchdogCycles aborts the simulation if no instruction commits for
	// this many cycles (deadlock detector). 0 uses a default.
	WatchdogCycles uint64

	// Check, when non-nil, is polled every checkInterval cycles with the
	// current cycle and committed-instruction counts; a non-nil return
	// aborts the simulation with that error. Harness-level cancellation,
	// per-cell deadlines and abandonment all hang off this single hook,
	// so an unconfigured core pays one nil compare per cycle.
	Check func(cycle, committed uint64) error

	// MaxInstrs bounds committed instructions (0 = until halt).
	MaxInstrs uint64
	// MaxCycles bounds simulated cycles (0 = until halt).
	MaxCycles uint64
}

// DefaultConfig returns the Table I core: 8-wide, 192 ROB, 32/32 LQ/SQ.
func DefaultConfig() Config {
	return Config{
		Width:          8,
		ROBSize:        192,
		IQSize:         64,
		LQSize:         32,
		SQSize:         32,
		IntALUs:        6,
		FPUnits:        4,
		MemPorts:       4,
		Scheme:         SchemeUnsafe,
		Model:          Spectre,
		CodeBase:       0x40_0000,
		WatchdogCycles: 200_000,
	}
}

// Latency of each opcode class in cycles. FP transmitters have two
// latencies: the fast (normal-operand) path and the slow (subnormal,
// microcoded) path — the operand-dependent timing that makes them
// transmitters (§I-A).
const (
	latALU       = 1
	latMul       = 3
	latDiv       = 20
	latFAdd      = 4
	latConv      = 2
	latFMulFast  = 4
	latFMulSlow  = 28
	latFDivFast  = 18
	latFDivSlow  = 52
	latFSqrtFast = 24
	latFSqrtSlow = 60
)

// opLatency returns the execution latency for in, given its operand values
// (FP transmitters are operand-dependent unless forceFast, which is the SDO
// fast-path execution).
func opLatency(op isa.Op, rs, rt, result uint64, forceFast bool) uint64 {
	slow := !forceFast && isa.FPSlowPath(op, rs, rt, result)
	switch op {
	case isa.OpMul:
		return latMul
	case isa.OpDiv:
		return latDiv
	case isa.OpFAdd, isa.OpFSub:
		return latFAdd
	case isa.OpItoF, isa.OpFtoI:
		return latConv
	case isa.OpFMul:
		if slow {
			return latFMulSlow
		}
		return latFMulFast
	case isa.OpFDiv:
		if slow {
			return latFDivSlow
		}
		return latFDivFast
	case isa.OpFSqrt:
		if slow {
			return latFSqrtSlow
		}
		return latFSqrtFast
	default:
		return latALU
	}
}
