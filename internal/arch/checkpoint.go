package arch

import (
	"encoding/gob"
	"io"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Checkpoint is a restorable functional-warmup snapshot: the
// architectural state and memory image at the warmup boundary plus the
// serialized warm state of the memory hierarchy and branch predictor.
//
// A Checkpoint is immutable once built (or decoded): every cell of
// its workload restores from the same value, concurrently, and a restored
// machine shares Mem's pages instead of copying them (it copies a page
// before its first write to it), so nothing may write through Mem.
//
// A checkpoint is captured once per (workload, warmup budget) and
// restored into a fresh detailed machine for every variant/model/ablation
// cell of a sweep. Reuse is sound because Warmup is non-speculative: no
// field of the snapshot depends on the design variant the measurement
// window will run (see DESIGN.md, "Functional warmup and checkpoints").
// Transient timing state (cache banks, MSHRs, the DRAM scheduler queue)
// is empty at the boundary by construction and is therefore not part of
// the format.
type Checkpoint struct {
	// WarmupInstrs is the budget the checkpoint was captured with (the
	// executed count is Arch.Instrs, smaller only if the program halted).
	WarmupInstrs uint64
	Arch         State
	Mem          map[uint64][]byte // page image (isa.Memory.ShareImage); read-only
	Hier         mem.HierState
	BP           bpred.State
}

// Capture builds fresh memory/hierarchy/predictor state for prog, runs
// functional warmup, and snapshots the result. init (optional) populates
// the initial memory image.
func Capture(p *isa.Program, init func(*isa.Memory), memCfg mem.Config, bpCfg bpred.Config, codeBase uint64, warmupInstrs uint64) *Checkpoint {
	return CaptureSeries(p, isa.NewImage(init), memCfg, bpCfg, codeBase, []uint64{warmupInstrs})[0]
}

// CaptureSeries runs one continuous functional warmup over prog on the
// initial memory image data (which it consumes: warmup writes to it),
// snapshotting a Checkpoint at each of the given committed-instruction
// boundaries (which must be non-decreasing). Each snapshot is
// bit-identical to a fresh Capture with that boundary as the budget —
// warmup is deterministic and a snapshot's pages are never written again
// (see Warmer.Snapshot) — but the whole series costs a single pass
// instead of one pass per boundary, and holds one copy of every page the
// program did not dirty in between. This is the capture primitive of
// SimPoint-style multi-checkpoint sampling: functional cache/TLB/bpred
// warmup is carried across the skipped intervals between representatives.
func CaptureSeries(p *isa.Program, data *isa.Memory, memCfg mem.Config, bpCfg bpred.Config, codeBase uint64, boundaries []uint64) []*Checkpoint {
	w := NewWarmer(p, data, mem.NewHierarchy(memCfg), bpred.New(bpCfg), codeBase)
	out := make([]*Checkpoint, len(boundaries))
	for i, b := range boundaries {
		w.Advance(b)
		ck := w.Snapshot()
		// Restore matches on the configured budget, not the executed
		// count (the program may halt inside the last interval).
		ck.WarmupInstrs = b
		out[i] = ck
	}
	return out
}

// Encode writes the checkpoint in its serialized (gob) form.
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// Decode reads a checkpoint serialized by Encode.
func Decode(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, err
	}
	return &c, nil
}
