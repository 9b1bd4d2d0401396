package pipeline

import (
	"fmt"
	"math/bits"

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
		if !e.hasDest || e.rd != isa.Reg(r) {
			return fmt.Errorf("pipeline: renameMap[r%d] = %d, but that entry writes r%d (hasDest=%v)",
				r, seq, e.rd, e.hasDest)
		}
	}

	// Every queue and work list is recomputed by a brute-force ROB scan: it
	// holds exactly the live entries its predicate selects, once each, and
	// in age order where the stages rely on that. want is a bitset over ROB
	// ring slots, owned by the core so a check every cycle allocates nothing.
	if c.chk == nil {
		c.chk = make([]uint64, len(c.ready))
	}
	want := c.chk
	has := func(set []uint64, seq uint64) bool { w, bit := c.slotBit(seq); return set[w]&bit != 0 }
	put := func(seq uint64) { w, bit := c.slotBit(seq); want[w] |= bit }
	del := func(seq uint64) { w, bit := c.slotBit(seq); want[w] &^= bit }
	for _, l := range []struct {
		name    string
		n       int                // the list's length
		at      func(i int) uint64 // its i-th seq
		ordered bool
		member  func(*robEntry) bool
	}{
		{"LQ", c.lq.n, func(i int) uint64 { return *c.lq.at(i) }, true, (*robEntry).isLoad},
		{"SQ", c.sq.n, func(i int) uint64 { return *c.sq.at(i) }, true, func(e *robEntry) bool { return e.isStore() || e.op == isa.OpFlush }},
		{"exec", len(c.exec), func(i int) uint64 { return c.exec[i] }, false, func(e *robEntry) bool { return e.state == stExecuting && e.obl == oblNone && !e.isStore() }},
		{"stData", len(c.stData), func(i int) uint64 { return c.stData[i] }, false, func(e *robEntry) bool { return e.isStore() && e.addrValid && !e.sqDataReady }},
		{"brs", len(c.brs), func(i int) uint64 { return c.brs[i] }, true, func(e *robEntry) bool { return e.isCond() && !e.effectApplied }},
		{"fps", len(c.fps), func(i int) uint64 { return c.fps[i] }, true, func(e *robEntry) bool { return e.fpSDO && !e.effectApplied }},
		{"obls", len(c.obls), func(i int) uint64 { return c.obls[i].seq }, true, func(e *robEntry) bool { return e.obl != oblNone && e.obl != oblResolved }},
	} {
		clear(want)
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			if l.member(c.entry(seq)) {
				put(seq)
			}
		}
		prev := uint64(0)
		for i := 0; i < l.n; i++ {
			seq := l.at(i)
			if !c.live(seq) || !has(want, seq) {
				return fmt.Errorf("pipeline: %s holds seq %d, which is dead, listed twice or of the wrong kind", l.name, seq)
			}
			del(seq)
			if l.ordered && seq <= prev {
				return fmt.Errorf("pipeline: %s not age-ordered at %d", l.name, seq)
			}
			prev = seq
		}
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			if has(want, seq) {
				return fmt.Errorf("pipeline: %s is missing live seq %d (%v)", l.name, seq, *c.instr(c.entry(seq)))
			}
		}
	}

	// The issue queue is an exact partition of the live stWaiting entries:
	// one is in the ready set iff no source it needs is in flight (iff its
	// waitOn is 0); any other hangs on exactly one waiter list, reachable
	// once — that of a live, unbound, needed producer older than itself. No
	// other ready bit is set and iqN counts them all. want collects the
	// entries that must be found on a list.
	clear(want)
	inIQ, readyBits := 0, 0
	for _, w := range c.ready {
		readyBits += bits.OnesCount64(w)
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.entry(seq)
		bit := has(c.ready, seq)
		if e.state != stWaiting {
			if bit {
				return fmt.Errorf("pipeline: ready bit set for seq %d, which is not waiting (state %d)", seq, e.state)
			}
			continue
		}
		inIQ++
		if blocked := c.blockedOn(e) != 0; bit == blocked || bit != (e.waitOn == 0) {
			return fmt.Errorf("pipeline: IQ seq %d: ready bit %v, waitOn %d, but blockedOn = %d", seq, bit, e.waitOn, c.blockedOn(e))
		}
		if bit {
			readyBits--
			continue
		}
		w, needed := e.waitOn, false
		for i := 0; i < int(e.nNeed); i++ {
			needed = needed || e.src[i].producer == int64(w)
		}
		if !needed || w < c.headSeq || w >= seq || c.entry(w).state == stDone {
			return fmt.Errorf("pipeline: IQ seq %d waits on %d, not a live, older, in-flight producer it needs", seq, w)
		}
		put(seq)
	}
	if readyBits != 0 {
		return fmt.Errorf("pipeline: %d ready bits set for dead ROB slots", readyBits)
	}
	if inIQ != c.iqN {
		return fmt.Errorf("pipeline: iqN = %d, but %d live entries are waiting", c.iqN, inIQ)
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		for w := c.entry(seq).waitHead; w != 0; w = c.entry(w).waitNext {
			if !c.live(w) || !has(want, w) || c.entry(w).waitOn != seq {
				return fmt.Errorf("pipeline: waiter list of seq %d holds %d, which is dead, listed twice or not waiting on it", seq, w)
			}
			del(w)
		}
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		if has(want, seq) {
			return fmt.Errorf("pipeline: IQ seq %d waits on %d but is not on its waiter list", seq, c.entry(seq).waitOn)
		}
	}

	// The incremental frontier scan resumes at min(frontier, frontierDirty):
	// nothing older may block, or a full scan would stop earlier.
	for seq := c.headSeq; seq < min(c.frontier, c.frontierDirty, c.tailSeq); seq++ {
		if c.blocksFrontier(c.entry(seq)) {
			return fmt.Errorf("pipeline: seq %d blocks below the frontier resume point min(%d, %d)", seq, c.frontier, c.frontierDirty)
		}
	}

	// The walk gates skip nothing due. A resolved branch still on brs has
	// a predicate the last walk found tainted, and it still is. An Obl-Ld
	// wakes after this cycle and no later than the first of its Done,
	// EarlyDone and valDone still ahead, and obls as a whole no later
	// than its earliest entry.
	for _, seq := range c.brs {
		if e := c.entry(seq); e.resolved && (!c.schemeTaint || c.cfg.NoImplicitChannelProtection || !c.tainted(e.destRoot) || e.delayedSince == 0) {
			return fmt.Errorf("pipeline: branch seq %d is resolved, its predicate (root %d, frontier %d) untainted or never parked, but it is still on brs", seq, e.destRoot, c.frontier)
		}
	}
	for _, it := range c.obls {
		s, due := c.side(it.seq), noSeq
		for _, t := range [...]uint64{s.oblRes.Done, s.oblRes.EarlyDone, s.valDone} {
			if t > c.cycle {
				due = min(due, t)
			}
		}
		if it.wake <= c.cycle || it.wake > due || c.oblWake > it.wake {
			return fmt.Errorf("pipeline: Obl-Ld seq %d wakes at %d (list at %d), but at cycle %d its next event is at %d", it.seq, it.wake, c.oblWake, c.cycle, due)
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
		if (e.isLoad() || e.isCond() || e.fpSDO) && c.side(seq).seq != seq {
			return fmt.Errorf("pipeline: side slot of seq %d belongs to seq %d", seq, c.side(seq).seq)
		}
		if e.row != c.row(e.pc) || e.op != c.instr(e).Op || e.rd != c.instr(e).Rd {
			return fmt.Errorf("pipeline: seq %d at pc %d holds another pc's static row", seq, e.pc)
		}
	}

	// The frontier never exceeds the allocation point, except stale between
	// a squash and the next computeFrontier — which the squash pulled back.
	if min(c.frontier, c.frontierDirty) > c.tailSeq {
		return fmt.Errorf("pipeline: frontier %d (dirty from %d) beyond tail %d", c.frontier, c.frontierDirty, c.tailSeq)
	}
	return nil
}
