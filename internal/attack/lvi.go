package attack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// Load-value injection (LVI): instead of steering a victim branch at an
// out-of-bounds index, the attacker injects a *value* into a victim
// load. Inside the transient window a store to the victim's pointer
// slot is in the store queue when the victim's load issues, so
// store-to-load forwarding hands the victim the attacker's pointer
// instead of the architectural one. The victim's own dereference +
// transmit gadget then reads the secret and leaves it in the oracle
// array, recovered with the same flush+reload cycle-probe scan as
// Spectre V1. The injecting store is squashed — architecturally nothing
// ever changed — but on an unprotected machine the cache footprint
// survives.
//
// The defenses block it at the same choke points: under STT the
// forwarded load is an access instruction whose output stays tainted,
// so the dependent dereference never executes early; under SDO it runs
// data-obliviously with no footprint; SafeSpec/SpecBox discard the
// shadow fills on squash.

// Memory layout of the LVI image (bound chain, oracle and results are
// shared with the Spectre V1 image).
const (
	lviSlotAddr   = 0xE000 // the victim's pointer slot (holds lviPubAddr)
	lviPubAddr    = 0xD000 // the public byte the slot legitimately points at
	lviSecretBase = 0xC000 // secret bytes (never architecturally read)
)

// Extra registers; everything else reuses the Spectre V1 assignments.
const (
	rSlot = isa.R12 // &slot (reuses rABase: this gadget has no array A)
	rInj  = isa.R31 // injected value: &secret[k] when attacking, &pub when training
)

// buildLVI generates the load-value-injection program for the given
// secret. After a run, recovered byte k is at resultBase + 8k.
func buildLVI(secret []byte) (*isa.Program, func(*isa.Memory)) {
	b := isa.NewBuilder()
	b.MovI(rZero, 0)
	b.MovI(rSix, 6)
	b.MovI(rNine, 9)
	b.MovI(rR256, probeLines)
	b.MovI(rBoundPtr, boundAddr)
	b.MovI(rBBase, probeArray)
	b.MovI(rSlot, lviSlotAddr)
	b.MovI(rResult, resultBase)
	b.MovI(rFifteen, lenA-1)
	b.MovI(rThree, 3)
	b.MovI(rAllOnes, -1)
	b.MovI(rK, 0)
	b.MovI(rNK, int64(len(secret)))

	b.Label("k_loop")

	// --- per-secret-byte: 8 training rounds + 1 injection round ---
	// The same branchless select as Spectre V1 keeps the branch-history
	// context identical across rounds; training rounds "inject" the
	// pointer the slot already holds, so their committed store is an
	// architectural no-op.
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
	b.Shr(rSel, rJ, rThree)     // 1 iff j == 8
	b.Sub(rMask, rZero, rSel)   // all-ones iff injecting
	b.AddI(rOOB, rK, secretOff) // out-of-bounds index, >= bound: mispredicts
	b.And(rOOB, rOOB, rMask)
	b.Xor(rSel, rMask, rAllOnes)
	b.And(rAddr, rJ, rFifteen) // in-bounds training index
	b.And(rAddr, rAddr, rSel)
	b.Or(rAddr, rAddr, rOOB)
	b.MovI(rTmp, lviSecretBase) // rInj = attacking ? &secret[k] : &pub
	b.Add(rOOB, rTmp, rK)
	b.And(rOOB, rOOB, rMask)
	b.MovI(rTmp, lviPubAddr)
	b.And(rTmp, rTmp, rSel)
	b.Or(rInj, rOOB, rTmp)

	// --- the victim gadget behind a slow bounds check ---
	// Serialise so the flushes have committed, then chase the flushed
	// three-hop bound chain: the check resolves only after ~3 DRAM
	// accesses, holding the transient window open.
	b.RdCyc(rSer)
	b.And(rSer, rSer, rZero)
	b.Add(rAddr, rAddr, rSer)
	b.Add(rTmp, rBoundPtr, rSer)
	b.Load(rBound, rTmp, 0)
	b.Load(rBound, rBound, 0)
	b.Load(rBound, rBound, 0)
	b.Bge(rAddr, rBound, "out") // mispredicted on the injection round
	b.Store(rInj, rSlot, 0)     // the injecting store (squashed when attacking)
	b.Load(rTmp, rSlot, 0)      // victim load: forwards the injected pointer
	b.LoadB(rSecret, rTmp, 0)   // victim dereference (reads the secret)
	b.Shl(rSecret, rSecret, rSix)
	b.Add(rTmp, rBBase, rSecret)
	b.Load(rProbe, rTmp, 0) // transmitter: oracle[secret*64]
	b.Label("out")
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rNine, "j_loop")

	// --- flush+reload probe scan (identical to Spectre V1) ---
	b.MovI(rBest, 1<<30)
	b.MovI(rBestIdx, 0)
	b.MovI(rI, 0)
	b.Label("probe_loop")
	b.Shl(rTmp, rI, rSix)
	b.Add(rTmp, rTmp, rBBase)
	b.RdCyc(rT1)
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
		m.Write64(lviSlotAddr, lviPubAddr)
		m.Write8(lviPubAddr, 0) // the test secret has no zero bytes
		for k, s := range secret {
			m.Write8(lviSecretBase+uint64(k), s)
		}
		for i := 0; i < probeLines; i++ {
			m.Write8(probeArray+uint64(i*64), 1)
		}
	}
	return prog, init
}

// RunLVI runs the load-value-injection attack against one configuration
// and reports what the attacker recovered.
func RunLVI(variant core.Variant, model pipeline.AttackModel, secret []byte) (Outcome, error) {
	prog, init := buildLVI(secret)
	m := core.NewMachine(core.Config{Variant: variant, Model: model}, prog, init)
	res, err := m.Run()
	if err != nil {
		return Outcome{}, fmt.Errorf("attack: lvi: %w", err)
	}
	if !res.Halted {
		return Outcome{}, fmt.Errorf("attack: lvi: program did not halt")
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
