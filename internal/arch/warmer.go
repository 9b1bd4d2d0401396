package arch

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Warmer is the incremental form of Warmup: it holds the functional
// emulator plus the microarchitectural state it is touch-warming, and
// advances to successive committed-instruction boundaries on demand. At
// any boundary the warm state can be snapshotted into a Checkpoint.
//
// The execution path is identical to a single Warmup call with the same
// final budget — snapshotting at an intermediate boundary never perturbs
// the instructions that follow, nor they it (the warmer copies a page a
// snapshot holds before writing to it) — so a checkpoint taken at
// boundary b by a Warmer that previously snapshotted earlier boundaries
// is bit-identical to one captured by a fresh Warmup(p, ..., b). This is
// what makes one continuous warmup pass able to serve a whole
// SimPoint-style multi-checkpoint schedule.
type Warmer struct {
	prog     *isa.Program
	data     *isa.Memory
	hier     *mem.Hierarchy
	bp       *bpred.Predictor
	codeBase uint64

	st       State
	lastLine uint64 // last I-line warmed (0 = none, matching the pipeline)
}

// NewWarmer wraps prog and the given warm-state sinks in an incremental
// warmer positioned at the reset state.
func NewWarmer(p *isa.Program, data *isa.Memory, hier *mem.Hierarchy, bp *bpred.Predictor, codeBase uint64) *Warmer {
	return &Warmer{prog: p, data: data, hier: hier, bp: bp, codeBase: codeBase}
}

// State returns the current architectural state.
func (w *Warmer) State() State { return w.st }

// Halted reports whether the program has halted.
func (w *Warmer) Halted() bool { return w.st.Halted }

// Advance executes functionally until toInstrs committed instructions (or
// halt), touch-warming the memory hierarchy and branch predictor through
// the warm access paths: instruction lines warm the L1I (once per line,
// mirroring the pipeline's fetch), loads warm the TLB and the data path,
// stores warm the write path, conditional branches run a predict/train
// pair, and clflushes flush. Returns the architectural state at the
// boundary.
func (w *Warmer) Advance(toInstrs uint64) State {
	for w.st.Instrs < toInstrs && !w.st.Halted {
		pcAddr := w.codeBase + uint64(w.st.PC)*8
		if line := mem.LineAddr(pcAddr); line != w.lastLine {
			w.hier.WarmFetch(pcAddr)
			w.lastLine = line
		}
		info := w.st.Step(w.prog, w.data)
		switch {
		case info.Branch && info.Cond:
			pred, snap := w.bp.PredictDirection(pcAddr)
			w.bp.Update(pcAddr, info.Taken, pred != info.Taken, snap)
		case info.IsLoad:
			w.hier.WarmTranslate(info.Addr)
			w.hier.WarmLoad(info.Addr)
		case info.Mem:
			w.hier.WarmStore(info.Addr)
		case info.Flush:
			w.hier.Flush(info.FlushAddr)
		}
	}
	return w.st
}

// Snapshot captures the current warm state as a restorable Checkpoint
// whose WarmupInstrs is the executed instruction count, so a Machine
// configured with exactly that warmup budget can Restore it. Hierarchy
// and predictor state are copied; the memory image is taken by reference
// (isa.Memory.ShareImage): the checkpoint holds the warmer's current
// pages, and the warmer copies one before it next writes to it.
func (w *Warmer) Snapshot() *Checkpoint {
	return &Checkpoint{
		WarmupInstrs: w.st.Instrs,
		Arch:         w.st,
		Mem:          w.data.ShareImage(),
		Hier:         w.hier.State(),
		BP:           w.bp.State(),
	}
}
