package pipeline

import (
	"fmt"

	"repro/internal/isa"
)

// CheckInvariants verifies internal consistency of the core's speculative
// state. It is exercised by tests after every cycle of randomized runs; a
// violation indicates a bookkeeping bug (rename repair, queue trimming,
// frontier monotonicity within a squash-free region, ...).
func (c *Core) CheckInvariants() error {
	if c.tailSeq < c.headSeq {
		return fmt.Errorf("pipeline: tail %d < head %d", c.tailSeq, c.headSeq)
	}
	if c.tailSeq-c.headSeq > uint64(c.cfg.ROBSize) {
		return fmt.Errorf("pipeline: ROB window %d exceeds capacity %d",
			c.tailSeq-c.headSeq, c.cfg.ROBSize)
	}

	// The rename map points at live producers that write the mapped
	// register, at committed producers (squash repair may restore a
	// mapping whose producer has since retired; reads then fall back to
	// the architectural regfile), or at the regfile sentinel.
	for r, prod := range c.renameMap {
		if prod < 0 || uint64(prod) < c.headSeq {
			continue
		}
		seq := uint64(prod)
		if seq >= c.tailSeq {
			return fmt.Errorf("pipeline: renameMap[r%d] = %d beyond tail %d", r, seq, c.tailSeq)
		}
		e := c.entry(seq)
		if !e.hasDest || e.in.Rd != isa.Reg(r) {
			return fmt.Errorf("pipeline: renameMap[r%d] = %d, but that entry writes r%d (hasDest=%v)",
				r, seq, e.in.Rd, e.hasDest)
		}
	}

	// Every queue and work list is recomputed by a brute-force ROB scan: it
	// holds exactly the live entries its predicate selects, once each, and
	// in age order where the stages rely on that.
	seqs := func(r *ring[uint64]) (out []uint64) {
		for i := 0; i < r.n; i++ {
			out = append(out, *r.at(i))
		}
		return out
	}
	var iq []uint64
	for _, s := range c.iq {
		iq = append(iq, s.seq)
	}
	for _, l := range []struct {
		name    string
		got     []uint64
		ordered bool
		member  func(*robEntry) bool
	}{
		{"LQ", seqs(&c.lq), true, (*robEntry).isLoad},
		{"SQ", seqs(&c.sq), true, func(e *robEntry) bool { return e.isStore() || e.in.Op == isa.OpFlush }},
		{"IQ", iq, true, func(e *robEntry) bool { return e.state == stWaiting }},
		{"exec", c.exec, false, func(e *robEntry) bool { return e.state == stExecuting && e.obl == oblNone && !e.isStore() }},
		{"stData", c.stData, false, func(e *robEntry) bool { return e.isStore() && e.addrValid && !e.sqDataReady }},
		{"brs", c.brs, true, func(e *robEntry) bool { return e.isCond() && !e.effectApplied }},
		{"fps", c.fps, true, func(e *robEntry) bool { return e.fpSDO && !e.effectApplied }},
		{"obls", c.obls, true, func(e *robEntry) bool { return e.obl != oblNone && e.obl != oblResolved }},
	} {
		want := map[uint64]bool{}
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			if l.member(c.entry(seq)) {
				want[seq] = true
			}
		}
		prev := uint64(0)
		for _, seq := range l.got {
			if !want[seq] {
				return fmt.Errorf("pipeline: %s holds seq %d, which is dead, listed twice or of the wrong kind", l.name, seq)
			}
			delete(want, seq)
			if l.ordered && seq <= prev {
				return fmt.Errorf("pipeline: %s not age-ordered at %d", l.name, seq)
			}
			prev = seq
		}
		for seq := range want {
			return fmt.Errorf("pipeline: %s is missing live seq %d (%v)", l.name, seq, c.entry(seq).in)
		}
	}

	// An IQ blocked mark names an in-flight producer of a source the entry
	// needs to issue, unless issue ran out of width with a wake-up pending.
	for _, s := range c.iq {
		e, w := c.entry(s.seq), s.waitOn
		needed := w == 0
		for i := 0; i < int(e.nNeed); i++ {
			needed = needed || e.src[i].producer == int64(w) && c.live(w) && c.entry(w).state != stDone
		}
		if !needed && !c.wake {
			return fmt.Errorf("pipeline: IQ seq %d marked blocked on %d, not an in-flight needed producer", s.seq, w)
		}
	}

	// The incremental frontier scan resumes at min(frontier, frontierDirty):
	// nothing older may block, or a full scan would stop earlier.
	for seq := c.headSeq; seq < min(c.frontier, c.frontierDirty, c.tailSeq); seq++ {
		if c.blocksFrontier(c.entry(seq)) {
			return fmt.Errorf("pipeline: seq %d blocks below the frontier resume point min(%d, %d)", seq, c.frontier, c.frontierDirty)
		}
	}

	// Parked squashes reference live instructions.
	for _, p := range c.parked {
		if p.from >= c.tailSeq {
			return fmt.Errorf("pipeline: parked squash for dead seq %d", p.from)
		}
	}

	// Entry-level sanity for the live window.
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.entry(seq)
		if e.seq != seq {
			return fmt.Errorf("pipeline: ROB slot for %d holds seq %d", seq, e.seq)
		}
		if e.state == stDone && e.hasDest && e.destRoot > e.seq {
			return fmt.Errorf("pipeline: seq %d has taint root %d younger than itself", seq, e.destRoot)
		}
		if e.obl != oblNone && !e.isLoad() {
			return fmt.Errorf("pipeline: non-load seq %d has Obl state %d", seq, e.obl)
		}
	}

	// The frontier never exceeds the allocation point, except stale between
	// a squash and the next computeFrontier — which the squash pulled back.
	if min(c.frontier, c.frontierDirty) > c.tailSeq {
		return fmt.Errorf("pipeline: frontier %d (dirty from %d) beyond tail %d", c.frontier, c.frontierDirty, c.tailSeq)
	}
	return nil
}
