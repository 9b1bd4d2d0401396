package pipeline

import (
	"fmt"
	"slices"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/obs"
)

// resolve runs the untaint-driven machinery once per cycle: it advances
// the visibility frontier, then — oldest first — applies parked squashes
// whose predicates untainted, branch resolutions (delayed for tainted
// predicates per STT's implicit-channel rule), Obl-Ld state transitions,
// and SDO floating-point resolutions.
func (c *Core) resolve() {
	c.computeFrontier()
	c.applyParked()
	c.resolveBranches()
	c.stepOblAll()
	c.resolveFPSDO()
}

// computeFrontier sets c.frontier to the first sequence number that is
// still speculative under the configured attack model. Everything older is
// non-speculative: its taint roots compare as untainted.
//
// Spectre: an access instruction reaches its visibility point when all
// older control-flow instructions have resolved (and their resolution
// effects applied — a resolved-but-parked branch can still squash).
//
// Futuristic: when nothing older can squash it for any reason: branches,
// stores with unresolved addresses (memory-order violations), loads whose
// own value/validation story is not finished, unresolved SDO operations,
// and parked squashes.
//
// The scan resumes at the previous frontier, pulled back to frontierDirty:
// an entry that stopped blocking blocks again only if its Pending Squash
// bit is set or a squash frees its seq, and both lower frontierDirty.
func (c *Core) computeFrontier() {
	seq := max(min(c.frontier, c.frontierDirty), c.headSeq)
	for seq < c.tailSeq && !c.blocksFrontier(c.entry(seq)) {
		seq++
	}
	if seq != c.frontier {
		c.frontier = seq
		c.changed = true
	}
	c.frontierDirty = noSeq
}

// markPendingSq sets e's Pending Squash bit, which blocks the frontier at e.
func (c *Core) markPendingSq(e *robEntry) {
	e.pendingSq = true
	c.frontierDirty = min(c.frontierDirty, e.seq)
}

func (c *Core) blocksFrontier(e *robEntry) bool {
	if e.pendingSq {
		return true
	}
	if c.cfg.Model == Spectre {
		return e.isCond() && !e.effectApplied
	}
	// Futuristic.
	if e.is(isa.ClassBranch) && !e.effectApplied {
		return true
	}
	if e.isStore() && !e.addrValid {
		return true
	}
	if e.isLoad() {
		if e.obl != oblNone {
			if e.obl != oblResolved {
				return true
			}
		} else if e.state != stDone {
			return true
		}
	}
	if e.fpSDO && !e.effectApplied {
		return true
	}
	return false
}

// applyParked applies, oldest first, every parked squash whose predicate
// root has untainted.
func (c *Core) applyParked() {
	for {
		best := -1
		for i, p := range c.parked {
			if p.from >= c.tailSeq {
				continue // squashed away already; pruned below
			}
			if p.vpSelf {
				if c.frontier < p.from {
					continue // the load has not reached its VP yet
				}
			} else if c.tainted(p.root) {
				continue
			}
			if best == -1 || p.from < c.parked[best].from {
				best = i
			}
		}
		if best == -1 {
			break
		}
		p := c.parked[best]
		c.parked = append(c.parked[:best], c.parked[best+1:]...)
		c.squash(p.from, p.cause, p.refetch)
	}
	// Prune entries referring to already-squashed instructions.
	kept := c.parked[:0]
	for _, p := range c.parked {
		if p.from < c.tailSeq {
			kept = append(kept, p)
		}
	}
	c.parked = kept
}

// resolveBranches applies branch resolution effects, oldest first, over
// the brs list. Under STT/SDO a tainted predicate parks the resolution (and
// the predictor update) until it untaints — the resolution-based implicit
// channel rule.
//
// A walk leaves no resolved branch with an untainted predicate on brs (a
// mispredict's squash takes every younger one), and only a new resolution
// or a frontier move can make one, so the walk runs only after one of them.
func (c *Core) resolveBranches() {
	if !c.brsDue && c.frontier == c.brsFrontier {
		return
	}
	c.brsDue, c.brsFrontier = false, c.frontier
	kept := c.brs[:0]
	for _, seq := range c.brs {
		e := c.entry(seq)
		if !e.resolved {
			kept = append(kept, seq)
			continue
		}
		if c.schemeTaint && !c.cfg.NoImplicitChannelProtection && c.tainted(e.destRoot) {
			if e.delayedSince == 0 {
				e.delayedSince = c.cycle
				c.stats.DelayedResolutions++
				c.changed = true
			}
			kept = append(kept, seq)
			continue
		}
		e.effectApplied = true
		c.changed = true
		c.stats.BranchesResolved++
		s := c.side(seq)
		if c.obs.On(obs.ClassBranch) {
			c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassBranch, Kind: "resolve-branch",
				Seq: e.seq, PC: e.pc,
				Detail: fmt.Sprintf("seq=%d pc=%d taken=%v mispredicted=%v target=%d",
					e.seq, e.pc, s.actualTaken, s.mispredicted, s.actualTarget)})
		}
		if s.mispredicted {
			c.stats.BranchMispredicts++
			c.squash(e.seq+1, sqBranch, s.actualTarget)
		}
		c.bp.Update(c.pcAddr(e.pc), s.actualTaken, s.mispredicted, s.bpSnap)
		if s.mispredicted {
			break // younger state is gone, the rest of the list with it
		}
	}
	c.brs = kept
}

// resolveFPSDO resolves, oldest first over the fps list, SDO floating-point
// operations whose arguments have untainted: success trains nothing (the
// static predictor has no state); failure squashes starting at the
// operation, which then re-executes on the normal (data-dependent latency)
// path.
func (c *Core) resolveFPSDO() {
	kept := c.fps[:0]
	for _, seq := range c.fps {
		e := c.entry(seq)
		if c.tainted(e.destRoot) { // for fpSDO entries destRoot is the arguments' root
			kept = append(kept, seq)
			continue
		}
		e.effectApplied = true
		c.changed = true
		if c.side(seq).fpFail {
			c.stats.FPSDOFail++
			if c.obs.On(obs.ClassFP) {
				c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassFP, Kind: "fp-sdo-fail",
					Seq: e.seq, PC: e.pc,
					Detail: fmt.Sprintf("seq=%d pc=%d %v subnormal operands", e.seq, e.pc, *c.instr(e))})
			}
			c.squash(e.seq, sqFPFail, e.pc)
			break
		}
	}
	c.fps = kept
}

// squash discards every instruction with seq >= from, repairs the rename
// map and branch-history state, redirects fetch to refetch, and records
// statistics.
func (c *Core) squash(from uint64, cause squashCause, refetch int) {
	if from < c.headSeq {
		panic("pipeline: squash of committed instructions")
	}
	c.stats.Squashes[cause]++
	if c.obs.On(obs.ClassSquash) {
		c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSquash, Kind: "squash",
			Seq: from, PC: refetch,
			Detail: fmt.Sprintf("from=%d cause=%s refetch-pc=%d tail-was=%d",
				from, squashCauseNames[cause], refetch, c.tailSeq)})
	}

	c.changed = true
	c.frontierDirty = min(c.frontierDirty, from)
	if from < c.tailSeq {
		c.stats.SquashedInstrs += c.tailSeq - from
		restored := false
		var snap bpred.Snapshot
		for seq := c.tailSeq; seq > from; {
			seq--
			e := c.entry(seq)
			if e.hasDest {
				c.renameMap[e.rd] = e.prevProd
			}
			if e.isCond() {
				snap = c.side(seq).bpSnap
				restored = true
			}
			if e.state == stWaiting {
				c.dequeueSquashed(e, from)
			}
		}
		if restored {
			c.bp.Restore(snap)
		}

		for _, q := range [...]*ring[uint64]{&c.lq, &c.sq} {
			for q.n > 0 && *q.at(q.n - 1) >= from {
				q.n--
			}
		}
		for _, q := range [...]*[]uint64{&c.exec, &c.stData, &c.brs, &c.fps} {
			*q = slices.DeleteFunc(*q, func(s uint64) bool { return s >= from })
		}
		for len(c.obls) > 0 && c.obls[len(c.obls)-1].seq >= from {
			c.obls = c.obls[:len(c.obls)-1] // age-ordered: the squashed ones are a suffix
		}

		kept := c.parked[:0]
		for _, p := range c.parked {
			if p.from < from {
				kept = append(kept, p)
			}
		}
		c.parked = kept

		c.tailSeq = from
	}

	if c.specActive {
		c.scheme.OnSquash(c, from)
	}

	// The frontend redirect happens even when no ROB entry is younger than
	// the squash point: wrong-path instructions may still sit in the fetch
	// buffer.
	c.fetchBuf.n = 0
	c.fetchPC = refetch
	c.fetchHalted = false
	c.fetchLine = ^uint64(0)
	if c.fetchStallUntil < c.cycle+1 {
		c.fetchStallUntil = c.cycle + 1 // one-cycle redirect bubble
	}
}

// dequeueSquashed takes a waiting entry out of the issue queue during
// squash(from): out of the ready set, or off the waiter list of a producer
// that survives the squash. The unlink is eager because seqs are reallocated
// after a squash — a stale link would later name a different instruction. The
// list of a squashed producer dies with it (rename zeroes the slot).
func (c *Core) dequeueSquashed(e *robEntry, from uint64) {
	c.iqN--
	switch {
	case e.waitOn == 0:
		w, bit := c.slotBit(e.seq)
		c.ready[w] &^= bit
	case e.waitOn < from:
		link := &c.entry(e.waitOn).waitHead
		for *link != e.seq {
			if *link == 0 {
				panic("pipeline: squashed waiter is not on its producer's list")
			}
			link = &c.entry(*link).waitNext
		}
		*link = e.waitNext
	}
}

// commit retires completed instructions in order, applying stores and
// flushes to the architectural memory and the cache hierarchy.
func (c *Core) commit() {
	for n := 0; n < c.cfg.Width; n++ {
		if c.headSeq == c.tailSeq {
			return
		}
		e := c.entry(c.headSeq)
		if e.pendingSq {
			return // a parked squash will remove this instruction's path
		}
		switch {
		case e.op == isa.OpHalt:
			c.halted = true
			c.changed = true
			c.stats.Committed++
			c.lastCommitCycle = c.cycle
			c.headSeq++
			return
		case e.isCond():
			if !e.effectApplied {
				return
			}
		case e.isStore():
			if !e.addrValid || !e.sqDataReady {
				return
			}
			isa.StoreValue(c.data, e.op, e.addr, e.sqData)
			c.port.Store(c.cycle, e.addr)
		case e.op == isa.OpFlush:
			// Address sources are committed by now; read the regfile.
			c.port.Flush(c.regs[c.instr(e).Rs] + uint64(c.instr(e).Imm))
		case e.isLoad():
			if e.state != stDone {
				return
			}
			if e.obl != oblNone {
				// Only an Obl-Ld validates (stepObl).
				s := c.side(e.seq)
				if e.obl != oblResolved {
					if s.valInFlight && !s.exposure {
						c.stats.ValidationStall++
					}
					return
				}
				if s.valInFlight && !s.exposure {
					// Validation must complete before retirement (§V-C1);
					// exposures retire immediately.
					c.stats.ValidationStall++
					return
				}
			}
		case e.fpSDO && !e.effectApplied:
			return // resolution (and possible squash) still pending
		default:
			if e.state != stDone {
				return
			}
		}
		if e.hasDest {
			c.regs[e.rd] = e.destVal
			if c.renameMap[e.rd] == int64(e.seq) {
				c.renameMap[e.rd] = -1
			}
		}
		if c.lq.n > 0 && *c.lq.at(0) == e.seq {
			c.lq.pop()
		}
		if c.sq.n > 0 && *c.sq.at(0) == e.seq {
			c.sq.pop()
		}
		if c.obs.On(obs.ClassCommit) {
			c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassCommit, Kind: "commit",
				Seq: e.seq, PC: e.pc,
				Detail: fmt.Sprintf("seq=%d pc=%d %v val=%#x", e.seq, e.pc, *c.instr(e), e.destVal)})
		}
		if c.specActive {
			c.scheme.OnCommit(c, e)
		}
		c.headSeq++
		c.stats.Committed++
		c.lastCommitCycle = c.cycle
		c.changed = true
	}
}
