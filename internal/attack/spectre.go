// Package attack implements the paper's §VIII-A penetration test: a
// complete Spectre V1 attack (Figure 1) that runs *inside* the simulator.
// The attacker and victim share a program (the SameThread model): the
// attacker trains the bounds-check branch, flushes the probe array and the
// bound, triggers a transient out-of-bounds access whose value indexes a
// cache-line-granular probe array, and then recovers the secret with a
// flush+reload timing scan using the serialising cycle counter.
//
// On the Unsafe machine the attack recovers the secret bytes exactly. On
// STT the transmitter never executes while tainted; on STT+SDO it executes
// as an Obl-Ld that leaves no cache footprint. Either way the probe scan
// sees a uniform (secret-independent) timing surface.
package attack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// Memory layout of the attack image.
const (
	boundAddr  = 0x9000   // the bounds variable (value: len(A))
	arrayA     = 0xA000   // the victim array A
	lenA       = 16       //
	secretOff  = 64       // secret bytes live at A+secretOff (out of bounds)
	probeArray = 0xB_0000 // B: 256 cache lines, one per byte value
	resultBase = 0xF_0000 // recovered bytes, one 64-bit word each
	probeLines = 256
)

// Registers used by the generated attack program.
const (
	rAddr     = isa.R1  // gadget input: index into A
	rBound    = isa.R2  // loaded bound
	rSecret   = isa.R3  // transiently loaded byte
	rProbe    = isa.R4  // transmitter result
	rZero     = isa.R5  // constant 0
	rSix      = isa.R6  // constant 6 (shift to line granularity)
	rJ        = isa.R7  // training-loop counter
	rEight    = isa.R8  // constant 8
	rSer      = isa.R9  // serialisation scratch
	rBoundPtr = isa.R10 // &bound
	rBBase    = isa.R11 // &B
	rABase    = isa.R12 // &A
	rI        = isa.R13 // probe counter
	rT1       = isa.R14
	rT2       = isa.R15
	rDT       = isa.R16
	rBest     = isa.R17 // best (lowest) probe latency
	rBestIdx  = isa.R18 // its index = recovered byte
	rK        = isa.R19 // secret byte index
	rNK       = isa.R20 // number of secret bytes
	rTmp      = isa.R21
	rNine     = isa.R22
	rR256     = isa.R23
	rResult   = isa.R24
	rFifteen  = isa.R25
	rThree    = isa.R26
	rAllOnes  = isa.R27
	rMask     = isa.R28 // all-ones on the attack round, zero when training
	rSel      = isa.R29
	rOOB      = isa.R30
)

// buildSpectreV1 generates the attack program for the given secret. The
// returned init function installs the victim data (bound, A, secret) into
// memory. After a run, recovered byte k is at resultBase + 8k.
func buildSpectreV1(secret []byte) (*isa.Program, func(*isa.Memory)) {
	b := isa.NewBuilder()
	b.MovI(rZero, 0)
	b.MovI(rSix, 6)
	b.MovI(rEight, 8)
	b.MovI(rNine, 9)
	b.MovI(rR256, probeLines)
	b.MovI(rBoundPtr, boundAddr)
	b.MovI(rBBase, probeArray)
	b.MovI(rABase, arrayA)
	b.MovI(rResult, resultBase)
	b.MovI(rFifteen, lenA-1)
	b.MovI(rThree, 3)
	b.MovI(rAllOnes, -1)
	b.MovI(rK, 0)
	b.MovI(rNK, int64(len(secret)))

	b.Label("k_loop")

	// --- per-secret-byte: 8 training calls + 1 attack call, same PC ---
	// Every round runs the same flush phase, so the branch-history context
	// reaching the gadget is identical when training and when attacking —
	// otherwise the attack round's context would stay trained "taken" from
	// the previous secret byte and the bounds check would stop
	// mispredicting.
	b.MovI(rJ, 0)
	b.Label("j_loop")
	b.MovI(rI, 0)
	b.Label("flush_loop")
	b.Shl(rTmp, rI, rSix)
	b.Add(rTmp, rTmp, rBBase)
	b.Flush(rTmp, 0)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rR256, "flush_loop")
	b.Flush(rBoundPtr, 0)
	b.Flush(rBoundPtr, 0x100)
	b.Flush(rBoundPtr, 0x200)
	// Branchless round-address select: rounds 0..7 train with j&15, round
	// 8 attacks with 64+k. Using arithmetic instead of a branch keeps the
	// branch-history context reaching the gadget identical in training and
	// attack rounds, so the mistraining actually lands.
	b.Shr(rSel, rJ, rThree)      // 1 iff j == 8
	b.Sub(rMask, rZero, rSel)    // all-ones iff attacking
	b.AddI(rOOB, rK, secretOff)  // out-of-bounds index: A[64+k] = secret[k]
	b.And(rOOB, rOOB, rMask)     //
	b.Xor(rSel, rMask, rAllOnes) // ^mask
	b.And(rAddr, rJ, rFifteen)   // in-bounds training index
	b.And(rAddr, rAddr, rSel)    //
	b.Or(rAddr, rAddr, rOOB)     //

	// --- the victim gadget (one static location, so the branch trains) ---
	// Serialise: rdcyc issues only at the head of the ROB, so every older
	// flush has committed; the gadget's inputs data-depend on it so the
	// bound load cannot hoist above the flushes.
	b.RdCyc(rSer)
	b.And(rSer, rSer, rZero)
	b.Add(rAddr, rAddr, rSer)
	b.Add(rTmp, rBoundPtr, rSer)
	// The bound sits behind a three-hop pointer chase; with the chain
	// flushed, the bounds check resolves only after ~3 DRAM accesses,
	// keeping the transient window comfortably longer than the secret
	// access + transmit chain (as a victim with a deep dependence chain
	// before the check would).
	b.Load(rBound, rTmp, 0)       // hop 1
	b.Load(rBound, rBound, 0)     // hop 2
	b.Load(rBound, rBound, 0)     // the bound itself
	b.Bge(rAddr, rBound, "out")   // the mispredicted bounds check
	b.Add(rTmp, rABase, rAddr)    //
	b.LoadB(rSecret, rTmp, 0)     // access instruction (reads the secret)
	b.Shl(rSecret, rSecret, rSix) //
	b.Add(rTmp, rBBase, rSecret)  //
	b.Load(rProbe, rTmp, 0)       // transmitter: B[secret*64]
	b.Label("out")
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rNine, "j_loop")

	// --- flush+reload probe scan ---
	b.MovI(rBest, 1<<30)
	b.MovI(rBestIdx, 0)
	b.MovI(rI, 0)
	b.Label("probe_loop")
	b.Shl(rTmp, rI, rSix)
	b.Add(rTmp, rTmp, rBBase)
	b.RdCyc(rT1)
	// The probed address data-depends on t1 (which is serialising), so the
	// load cannot run ahead of its timing bracket — the in-simulator
	// equivalent of the lfence a real flush+reload attack needs.
	b.And(rSer, rT1, rZero)
	b.Add(rTmp, rTmp, rSer)
	b.Load(rProbe, rTmp, 0)
	b.RdCyc(rT2)
	b.Sub(rDT, rT2, rT1)
	b.Bge(rDT, rBest, "not_best")
	b.Add(rBest, rDT, rZero)
	b.Add(rBestIdx, rI, rZero)
	b.Label("not_best")
	b.AddI(rI, rI, 1)
	b.Blt(rI, rR256, "probe_loop")

	// Record the recovered byte and advance to the next one.
	b.Shl(rTmp, rK, rThree)
	b.Add(rTmp, rTmp, rResult)
	b.Store(rBestIdx, rTmp, 0)
	b.AddI(rK, rK, 1)
	b.Blt(rK, rNK, "k_loop")
	b.Halt()

	prog := b.MustBuild()
	init := func(m *isa.Memory) {
		m.Write64(boundAddr, boundAddr+0x100)
		m.Write64(boundAddr+0x100, boundAddr+0x200)
		m.Write64(boundAddr+0x200, lenA)
		for i := 0; i < lenA; i++ {
			m.Write8(arrayA+uint64(i), byte(i))
		}
		for k, s := range secret {
			m.Write8(arrayA+secretOff+uint64(k), s)
		}
		// Touch the probe array so its pages exist (values irrelevant).
		for i := 0; i < probeLines; i++ {
			m.Write8(probeArray+uint64(i*64), 1)
		}
	}
	return prog, init
}

// Outcome reports one penetration-test run.
type Outcome struct {
	Variant   core.Variant
	Model     pipeline.AttackModel
	Secret    []byte
	Recovered []byte
	// Leaked is true when every byte was recovered exactly.
	Leaked bool
	Stats  pipeline.Stats
}

// RunSpectreV1 runs the attack against one configuration and reports what
// the attacker recovered.
func RunSpectreV1(variant core.Variant, model pipeline.AttackModel, secret []byte) (Outcome, error) {
	prog, init := buildSpectreV1(secret)
	m := core.NewMachine(core.Config{Variant: variant, Model: model}, prog, init)
	res, err := m.Run()
	if err != nil {
		return Outcome{}, fmt.Errorf("attack: %w", err)
	}
	if !res.Halted {
		return Outcome{}, fmt.Errorf("attack: program did not halt")
	}
	out := Outcome{Variant: variant, Model: model, Secret: secret, Stats: res.Stats}
	out.Leaked = true
	for k := range secret {
		got := byte(m.Memory().Read64(resultBase + uint64(k*8)))
		out.Recovered = append(out.Recovered, got)
		if got != secret[k] {
			out.Leaked = false
		}
	}
	return out, nil
}
