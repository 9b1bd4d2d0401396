package core

import (
	"reflect"
	"sync"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

// Equivalent cells. Some cells of a sweep grid simulate identically to
// another cell, labels aside, by construction of the pipeline rather than
// by luck in the data; a sweep simulates only the representative and
// copies its result. Two clauses define the representative (DESIGN.md
// "Equivalent cells"):
//
//   - Model. The attack model is read in one place, blocksFrontier
//     (pipeline/resolve.go), to place the visibility frontier. The frontier
//     is read only by taint checks — gated on Scheme.TracksTaint or, for FP
//     ops, on FPTransmitters — and by the operand roots only they read, by
//     Obl-Ld state steps and SDO FP resolutions (only SDO issues either),
//     and by parked squashes (queued only under taint). A scheme with
//     neither gate therefore simulates identically under every model, and
//     its representative runs under Spectre: Unsafe, SafeSpec and SpecBox.
//   - FP. FPTransmitters is read only for isa.ClassFPTransmitter ops
//     (pipeline/exec.go). On a program with none, a variant whose
//     configured pipeline differs from another's only in FPTransmitters
//     simulates identically to it: STT{ld+fp}'s representative is STT{ld}.
//
// Ablations never change a representative: each of them is gated on
// taint or on an SDO path, and the cell and its representative share
// theirs.

// equivFacts is what the rule needs to know of one variant's configured
// pipeline.
type equivFacts struct {
	modelFree bool    // no taint tracking and no FP transmitters: the model is never read
	fpTwin    Variant // the variant it equals on a program without FP transmitters (itself if none)
}

var (
	equivOnce sync.Once
	equiv     []equivFacts
)

// equivTable configures every variant once and derives its
// facts. Configure may build a predictor, so nothing here runs per cell.
func equivTable() []equivFacts {
	equivOnce.Do(func() {
		pcs := make([]pipeline.Config, len(registry))
		for i, s := range registry {
			pcs[i] = pipeline.DefaultConfig()
			s.Configure(&pcs[i], nil)
		}
		equiv = make([]equivFacts, len(pcs))
		for i, pc := range pcs {
			f := equivFacts{
				modelFree: !pc.Scheme.TracksTaint() && !pc.FPTransmitters,
				fpTwin:    Variant(i),
			}
			if pc.FPTransmitters {
				for j, twin := range pcs {
					if twin.FPTransmitters {
						continue
					}
					twin.FPTransmitters = true
					if reflect.DeepEqual(twin, pc) {
						f.fpTwin = Variant(j)
						break
					}
				}
			}
			equiv[i] = f
		}
	})
	return equiv
}

// FPFree reports that prog has no isa.ClassFPTransmitter op: the premise
// of the FP clause.
func FPFree(prog *isa.Program) bool {
	for _, in := range prog.Instrs {
		if in.Op.IsFPTransmitter() {
			return false
		}
	}
	return true
}

// Representative returns the cell whose simulation provably equals the
// cell (v, m)'s on a program, Variant and Model labels aside: (v, m)
// itself, or one that differs in model, variant or both. fpFree reports
// that the program has no FP transmitter (FPFree). The mapping is
// idempotent: a representative is its own representative.
func Representative(v Variant, m pipeline.AttackModel, fpFree bool) (Variant, pipeline.AttackModel) {
	t := equivTable()
	if v < 0 || int(v) >= len(t) {
		return v, m
	}
	if fpFree {
		v = t[v].fpTwin
	}
	if t[v].modelFree {
		m = pipeline.Spectre
	}
	return v, m
}
