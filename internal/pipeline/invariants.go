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
		if !e.hasDest || e.in.Rd != isa.Reg(r) {
			return fmt.Errorf("pipeline: renameMap[r%d] = %d, but that entry writes r%d (hasDest=%v)",
				r, seq, e.in.Rd, e.hasDest)
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
		ring    *ring[uint64] // the list, when it is a ring
		list    []uint64      // the list otherwise
		ordered bool
		member  func(*robEntry) bool
	}{
		{"LQ", &c.lq, nil, true, (*robEntry).isLoad},
		{"SQ", &c.sq, nil, true, func(e *robEntry) bool { return e.isStore() || e.in.Op == isa.OpFlush }},
		{"exec", nil, c.exec, false, func(e *robEntry) bool { return e.state == stExecuting && e.obl == oblNone && !e.isStore() }},
		{"stData", nil, c.stData, false, func(e *robEntry) bool { return e.isStore() && e.addrValid && !e.sqDataReady }},
		{"brs", nil, c.brs, true, func(e *robEntry) bool { return e.isCond() && !e.effectApplied }},
		{"fps", nil, c.fps, true, func(e *robEntry) bool { return e.fpSDO && !e.effectApplied }},
		{"obls", nil, c.obls, true, func(e *robEntry) bool { return e.obl != oblNone && e.obl != oblResolved }},
	} {
		clear(want)
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			if l.member(c.entry(seq)) {
				put(seq)
			}
		}
		n := len(l.list)
		if l.ring != nil {
			n = l.ring.n
		}
		prev := uint64(0)
		for i := 0; i < n; i++ {
			var seq uint64
			if l.ring != nil {
				seq = *l.ring.at(i)
			} else {
				seq = l.list[i]
			}
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
				return fmt.Errorf("pipeline: %s is missing live seq %d (%v)", l.name, seq, c.entry(seq).in)
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
