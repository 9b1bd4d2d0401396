package pipeline

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// accessSize returns the byte width of a memory op.
func accessSize(op isa.Op) uint64 {
	if op == isa.OpLoadB || op == isa.OpStoreB {
		return 1
	}
	return 8
}

func rangesOverlap(a, as, b, bs uint64) bool { return a < b+bs && b < a+as }

func rangeContains(outer, outerSize, inner, innerSize uint64) bool {
	return outer <= inner && inner+innerSize <= outer+outerSize
}

// readMem reads the load's architectural value from memory.
func (c *Core) readMem(e *robEntry) uint64 {
	return isa.LoadValue(c.data, e.op, e.addr)
}

// sqSearch scans older stores for forwarding. Outcomes:
//   - fwdOK: the youngest older containing store has ready data; val holds
//     the forwarded bytes, fwdSeq the store.
//   - stall: an older store overlaps in a way that cannot forward yet
//     (partial overlap, or data not ready): the load must wait.
//   - otherwise the load may read memory, speculating past any stores with
//     unknown (or tainted, see below) addresses.
//
// STT rule: a store whose address is known but *tainted* is treated as
// unknown — the address comparison is the predicate of an implicit branch
// and must not influence the load's timing before it untaints. Violations
// against such stores are detected when the store's address untaints.
func (c *Core) sqSearch(e *robEntry) (val uint64, fwdSeq int64, fwdOK, stall bool) {
	la, ls := e.addr, accessSize(e.op)
	for i := c.sq.n - 1; i >= 0; i-- {
		s := c.entry(*c.sq.at(i))
		if s.seq >= e.seq || s.op == isa.OpFlush {
			continue
		}
		if !s.addrValid {
			continue // speculate past unknown store addresses
		}
		if c.schemeTaint && c.tainted(s.addrRoot) {
			continue // tainted address: treated as unknown (see above)
		}
		sa, ss := s.addr, accessSize(s.op)
		if !rangesOverlap(sa, ss, la, ls) {
			continue
		}
		if !rangeContains(sa, ss, la, ls) || !s.sqDataReady {
			return 0, -1, false, true
		}
		v := s.sqData >> (8 * (la - sa))
		if ls == 1 {
			v &= 0xff
		}
		return v, int64(s.seq), true, false
	}
	return 0, -1, false, false
}

// issueLoad handles a load leaving the issue queue: once the address
// resolves, the active protection scheme decides the path — normal fill
// (Unsafe and untainted loads), STT delay, SDO Obl-Ld (reverting to
// delay when the predictor says DRAM), or a shadow fill (SafeSpec /
// SpecBox).
func (c *Core) issueLoad(e *robEntry) bool {
	v, ok, root := c.operandInfo(e.src[0])
	if !ok {
		return false
	}
	e.addr = v + uint64(c.instr(e).Imm)
	e.addrValid = true
	e.addrRoot = root
	return c.scheme.IssueLoad(c, e)
}

func (c *Core) issueNormalLoad(e *robEntry) bool {
	fv, fwdSeq, fwdOK, stall := c.sqSearch(e)
	if stall {
		return false
	}
	if c.memPortsBusy >= c.cfg.MemPorts {
		return false
	}
	c.memPortsBusy++
	c.stats.Loads++
	e.destRoot = e.seq // access instruction: output tainted until its VP
	if fwdOK {
		e.destVal = fv
		e.sqForward = fwdSeq
		e.memLevel = mem.L1 // store-queue forward: L1-equivalent timing
		e.doneAt = c.cycle + 1
		e.state = stExecuting
		c.emitIssueLoad(e)
		return true
	}
	tdone, _ := c.port.Translate(c.cycle, e.addr)
	r := c.port.Load(tdone, e.addr)
	e.destVal = c.readMem(e)
	e.memLevel = r.Level
	e.doneAt = r.Done
	e.state = stExecuting
	c.emitIssueLoad(e)
	if e.delayedSince != 0 && c.side(e.seq).oblMemDelayed {
		// §V-C3: a predicted-DRAM load executes normally once safe; the
		// location predictor is trained with where the data actually was,
		// so it can unlearn "DRAM" when the line becomes cached.
		c.cfg.LocPred.Update(c.pcAddr(e.pc), r.Level)
	}
	return true
}

// issueSpecLoad issues a load under a shadow-structure scheme (SafeSpec
// / SpecBox): it may read any committed level tag-only, but its fill
// lands in the speculative shadow (mem/spec.go) and reaches the
// committed hierarchy only when the load retires (Scheme.OnCommit) —
// squashed fills are discarded without a trace.
func (c *Core) issueSpecLoad(e *robEntry) bool {
	fv, fwdSeq, fwdOK, stall := c.sqSearch(e)
	if stall {
		return false
	}
	if c.memPortsBusy >= c.cfg.MemPorts {
		return false
	}
	c.memPortsBusy++
	c.stats.Loads++
	e.destRoot = e.seq
	if fwdOK {
		e.destVal = fv
		e.sqForward = fwdSeq
		e.memLevel = mem.L1 // store-queue forward: L1-equivalent timing
		e.doneAt = c.cycle + 1
		e.state = stExecuting
		c.emitIssueLoad(e)
		return true
	}
	tdone, _ := c.specPort.SpecTranslate(c.cycle, e.addr, e.seq)
	r := c.specPort.SpecLoad(tdone, e.addr, e.seq)
	e.destVal = c.readMem(e)
	e.memLevel = r.Level
	e.doneAt = r.Done
	e.specFill = true
	e.state = stExecuting
	c.emitIssueLoad(e)
	return true
}

// emitIssueLoad reports a normal-path load issue (ClassIssue); span-shaped
// (Dur = issue-to-done) so trace viewers render the memory latency.
func (c *Core) emitIssueLoad(e *robEntry) {
	if !c.obs.On(obs.ClassIssue) {
		return
	}
	c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassIssue, Kind: "issue-load",
		Seq: e.seq, PC: e.pc, Addr: e.addr, Level: e.memLevel.String(), Dur: e.doneAt - c.cycle,
		Detail: fmt.Sprintf("seq=%d pc=%d addr=%#x", e.seq, e.pc, e.addr)})
}

// issueOblLoad issues the load as an Obl-Ld operation (§V-B). Resource
// usage from here on is a function of the prediction and public state only.
func (c *Core) issueOblLoad(e *robEntry, pred mem.Level) bool {
	fv, fwdSeq, fwdOK, stall := c.sqSearch(e)
	if stall {
		return false
	}
	if c.memPortsBusy >= c.cfg.MemPorts {
		return false
	}
	c.memPortsBusy++
	c.stats.Loads++
	c.stats.OblIssued++

	s := c.side(e.seq)
	s.oblPred = pred
	s.oblTLBOK = c.port.TLBProbe(e.addr) // §V-B: L1-TLB lookup only; miss = ⊥
	if !s.oblTLBOK {
		c.stats.OblTLBMiss++
	}
	s.oblRes = c.port.OblLoad(c.cycle, e.addr, pred)
	e.obl = oblInFlight
	c.insertObl(e.seq)
	e.state = stExecuting
	e.doneAt = s.oblRes.Done // informational; binding happens in stepObl
	e.destRoot = e.seq

	if fwdOK {
		// §V-C3: the Obl-Ld issues unconditionally but correct data comes
		// from the store queue once the responses return.
		e.destVal = fv
		e.sqForward = fwdSeq
		s.exposure = true
	} else {
		e.destVal = c.readMem(e) // wait-buffer contents (if found)
		s.valSnapshot = e.destVal
		// §VI-A Validation/Exposure bit: an L1 hit retires without a
		// validation; the InvisiSpec reordering condition is re-checked
		// when the load becomes safe (see stepObl).
		s.exposure = s.oblRes.Found == mem.L1
	}
	if c.obs.On(obs.ClassSDO) {
		c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSDO, Kind: "obl-issue",
			Seq: e.seq, PC: e.pc, Addr: e.addr, Level: pred.String(), Dur: s.oblRes.Done - c.cycle,
			Detail: fmt.Sprintf("seq=%d pc=%d addr=%#x pred=%v found=%v tlb-ok=%v",
				e.seq, e.pc, e.addr, pred, s.oblRes.Found, s.oblTLBOK)})
	}
	return true
}

// noOlderIncompleteLoads reports whether every load older than seq has its
// value bound: the TSO condition under which a speculative load cannot
// have been reordered with an older load, and hence may be exposed rather
// than validated (InvisiSpec [47, Appendix A]).
func (c *Core) noOlderIncompleteLoads(seq uint64) bool {
	for i := 0; i < c.lq.n; i++ {
		ls := *c.lq.at(i)
		if ls >= seq {
			break // the LQ is age-ordered
		}
		if e := c.entry(ls); e.state != stDone {
			return false
		}
	}
	return true
}

// oblSuccessful reports whether the Obl-Ld produced correct data: the
// translation hit the L1 TLB and either the data was forwarded from the
// store queue or some looked-up level held the line.
func oblSuccessful(e *robEntry, s *robSide) bool {
	if e.sqForward >= 0 {
		return true
	}
	return s.oblTLBOK && s.oblRes.Found != mem.LevelNone
}

// oblActualLevel is the "Actual Level" field of §VI-A: the level that
// served the Obl-Ld, used to train the location predictor.
func (s *robSide) oblActualLevel() mem.Level { return s.oblRes.Found }

// checkStoreViolation runs when a store's address resolves: any younger
// load that already executed, overlaps, and did not forward from this
// store read stale data (§V-C1 memory-order speculation). The squash is
// applied immediately in the Unsafe core, and parked until the predicate
// (both addresses) untaints under STT/SDO.
func (c *Core) checkStoreViolation(s *robEntry) {
	sa, ss := s.addr, accessSize(s.op)
	var victim *robEntry
	for i := 0; i < c.lq.n; i++ {
		e := c.entry(*c.lq.at(i))
		if e.seq <= s.seq || !e.addrValid || e.state == stWaiting {
			continue
		}
		if !rangesOverlap(sa, ss, e.addr, accessSize(e.op)) {
			continue
		}
		if e.sqForward == int64(s.seq) {
			continue // correctly forwarded
		}
		if e.sqForward > int64(s.seq) {
			continue // forwarded from a younger store: that store's data wins
		}
		if victim == nil || e.seq < victim.seq {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	root := s.addrRoot
	if victim.addrRoot > root {
		root = victim.addrRoot
	}
	if c.schemeTaint && !c.cfg.NoImplicitChannelProtection && c.tainted(root) {
		c.markPendingSq(victim)
		c.parked = append(c.parked, parkedSquash{
			from: victim.seq, root: root, cause: sqMemOrder, refetch: victim.pc,
		})
		c.stats.PendingSquashDelays++
		return
	}
	c.squash(victim.seq, sqMemOrder, victim.pc)
}

// onInvalidate is the load-queue snoop (§V-C1): an external invalidation of
// a line read by an in-flight load may be a consistency violation. The
// squash is delayed until the load's address untaints (its own visibility
// point) under STT/SDO, and applied immediately in the Unsafe core.
func (c *Core) onInvalidate(lineAddr uint64) {
	for i := 0; i < c.lq.n; i++ {
		e := c.entry(*c.lq.at(i))
		if !e.addrValid || mem.LineAddr(e.addr) != lineAddr || e.state == stWaiting {
			continue
		}
		switch e.obl {
		case oblNone, oblResolved:
			if e.pendingSq {
				continue
			}
			if !c.schemeTaint || c.cfg.NoImplicitChannelProtection {
				c.squash(e.seq, sqConsistency, e.pc)
				return
			}
			c.markPendingSq(e)
			c.parked = append(c.parked, parkedSquash{
				from: e.seq, root: e.seq, vpSelf: true, cause: sqConsistency, refetch: e.pc,
			})
			c.stats.PendingSquashDelays++
		default:
			// Obl-Ld still resolving: force a full validation (not an
			// exposure) so the value comparison catches the change.
			s := c.side(e.seq)
			s.pendingInval = true
			s.exposure = false
		}
	}
}

// insertObl files a newly issued Obl-Ld on obls, due the next cycle.
func (c *Core) insertObl(seq uint64) {
	i, _ := slices.BinarySearchFunc(c.obls, seq, func(it oblItem, seq uint64) int { return cmp.Compare(it.seq, seq) })
	c.obls = slices.Insert(c.obls, i, oblItem{seq: seq, wake: c.cycle + 1})
	c.oblWake = min(c.oblWake, c.cycle+1)
}

// stepOblAll advances the Obl-Ld state machines on obls one cycle (§V-C2's
// event orderings). Called from resolve() after the frontier is computed.
//
// It steps only the entries that are due: those whose wake has come, and
// those the frontier crossed since the last walk (stepObl's "safe" flipped).
// Every action of stepObl changes obl or oblDropped, and otherwise a step
// with neither is a no-op until the first of Done, EarlyDone or valDone that
// is still ahead; so after a change an entry wakes the next cycle, and after
// a no-op at that first time (robSide.wakeAfter).
func (c *Core) stepOblAll() {
	lo, hi := min(c.oblFrontier, c.frontier), max(c.oblFrontier, c.frontier)
	c.oblFrontier = c.frontier
	if c.cycle < c.oblWake && lo == hi {
		return
	}
	n, wake := 0, noSeq // obls[:n] is what stays
	for i := range c.obls {
		it := &c.obls[i]
		if it.wake <= c.cycle || lo < it.seq && it.seq <= hi {
			e, s := c.entry(it.seq), c.side(it.seq)
			was, dropped := e.obl, s.oblDropped
			c.stepObl(e, s)
			moved := e.obl != was || s.oblDropped != dropped
			if moved {
				c.changed = true
			}
			if it.seq >= c.tailSeq {
				break // a squash removed this and younger entries
			}
			if e.obl == oblResolved {
				continue
			}
			it.wake = c.cycle + 1
			if !moved {
				it.wake = s.wakeAfter(c.cycle)
			}
		}
		if n != i {
			c.obls[n] = *it
		}
		n++
		wake = min(wake, it.wake)
	}
	c.obls, c.oblWake = c.obls[:n], wake
}

// wakeAfter is the first of the Obl-Ld's Done, EarlyDone and valDone after
// cycle (noSeq: none).
func (s *robSide) wakeAfter(cycle uint64) uint64 {
	wake := noSeq
	for _, t := range [...]uint64{s.oblRes.Done, s.oblRes.EarlyDone, s.valDone} {
		if t > cycle {
			wake = min(wake, t)
		}
	}
	return wake
}

func (c *Core) stepObl(e *robEntry, s *robSide) {
	// The load reaches its visibility point when everything older is
	// non-speculative — i.e. the frontier scan passed every older entry
	// (the load itself may be the frontier blocker).
	safe := e.seq <= c.frontier // event C has occurred

	switch e.obl {
	case oblInFlight:
		if safe {
			// C before B (cases 2 and 3): issue the validation right away.
			c.startValidation(e, s)
			e.obl = oblSafeWaitB
			return
		}
		if c.cycle >= s.oblRes.Done {
			// B before C (case 1): forward unconditionally, tainted.
			c.bindOblValue(e, e.destVal)
			e.obl = oblComplete
			if !oblSuccessful(e, s) {
				c.markPendingSq(e) // squash once safe (§VI-A Pending Squash)
			}
		}

	case oblComplete:
		if !safe {
			return
		}
		if oblSuccessful(e, s) {
			c.stats.OblSuccess++
			c.recordPrediction(e, s, s.oblActualLevel())
			// InvisiSpec's exposure condition, evaluated now that the load
			// is safe: under TSO a consistency squash could only have been
			// required if an older load is still incomplete; otherwise the
			// validation can be replaced by an asynchronous exposure
			// ([47, Appendix A], §V-C1).
			if !s.exposure && !c.cfg.AlwaysValidate && c.noOlderIncompleteLoads(e.seq) {
				s.exposure = true
			}
			if c.cfg.AlwaysValidate && e.sqForward < 0 {
				s.exposure = false
			}
			if s.exposure && !s.pendingInval {
				c.stats.Exposures++
				c.port.Load(c.cycle, e.addr) // asynchronous line fill
				e.obl = oblResolved
				if c.obs.On(obs.ClassSDO) {
					c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSDO, Kind: "obl-expose",
						Seq: e.seq, PC: e.pc, Addr: e.addr, Level: s.oblActualLevel().String(),
						Detail: fmt.Sprintf("seq=%d addr=%#x found=%v", e.seq, e.addr, s.oblActualLevel())})
				}
			} else {
				c.startValidation(e, s)
				e.obl = oblValidating
			}
			return
		}
		// Case 1 fail: squash starting at the load; it re-issues as a
		// normal load (its address is untainted now). The predictor is
		// trained with the level the data actually lives at (§V-C3; the
		// probe stands in for the validation's observation).
		cause := sqOblFail
		if !s.oblTLBOK {
			cause = sqTLB
		}
		c.stats.OblFail++
		if c.obs.On(obs.ClassSDO) {
			c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSDO, Kind: "obl-fail",
				Seq: e.seq, PC: e.pc, Addr: e.addr, Level: s.oblPred.String(),
				Detail: fmt.Sprintf("seq=%d addr=%#x pred=%v cause=%s (squash)",
					e.seq, e.addr, s.oblPred, squashCauseNames[cause])})
		}
		c.recordPrediction(e, s, c.port.Probe(e.addr))
		e.obl = oblResolved
		c.squash(e.seq, cause, e.pc)

	case oblSafeWaitB:
		if c.cycle >= s.valDone {
			// D arrived (case 3, or case-2 fail waiting on the validation):
			// the validation result — a guaranteed success — completes the
			// load.
			if !s.oblDropped && !oblSuccessful(e, s) {
				c.stats.OblFail++
			} else if !s.oblDropped {
				c.stats.OblSuccess++
			}
			c.bindOblValue(e, c.readMem(e))
			s.valSnapshot = e.destVal
			e.memLevel = s.valLevel
			c.recordPrediction(e, s, s.valLevel)
			s.valInFlight = false
			e.obl = oblResolved
			return
		}
		if c.cycle >= s.oblRes.Done && !oblSuccessful(e, s) && !s.oblDropped {
			// Case 2 with fail: it is now safe to reveal the fail; drop
			// the Obl-Ld result and wait for the validation — no squash.
			c.stats.OblFail++
			s.oblDropped = true
			if c.obs.On(obs.ClassSDO) {
				c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSDO, Kind: "obl-fail",
					Seq: e.seq, PC: e.pc, Addr: e.addr, Level: s.oblPred.String(),
					Detail: fmt.Sprintf("seq=%d addr=%#x pred=%v dropped; validation supplies value",
						e.seq, e.addr, s.oblPred)})
			}
			return
		}
		// Early forwarding (§V-C2 optimisation): once safe, a success
		// response can be forwarded without waiting for deeper levels.
		if c.cfg.DisableEarlyForward {
			return
		}
		if e.state != stDone && !s.oblDropped && oblSuccessful(e, s) && c.cycle >= s.oblRes.EarlyDone {
			if c.cycle < s.oblRes.Done {
				c.stats.OblEarlyForward++
				if c.obs.On(obs.ClassSDO) {
					c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSDO, Kind: "obl-early-fwd",
						Seq: e.seq, PC: e.pc, Addr: e.addr, Level: s.oblActualLevel().String(),
						Detail: fmt.Sprintf("seq=%d addr=%#x found=%v saved=%d",
							e.seq, e.addr, s.oblActualLevel(), s.oblRes.Done-c.cycle)})
				}
			}
			c.stats.OblSuccess++
			c.bindOblValue(e, e.destVal)
			c.recordPrediction(e, s, s.oblActualLevel())
			e.obl = oblValidating // validation already in flight; compare at D
		}

	case oblValidating:
		if c.cycle < s.valDone {
			return
		}
		s.valInFlight = false
		if c.readMem(e) != s.valSnapshot {
			// Consistency violation detected by the validation (§V-C1).
			if c.obs.On(obs.ClassSDO) {
				c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSDO, Kind: "obl-fail",
					Seq: e.seq, PC: e.pc, Addr: e.addr,
					Detail: fmt.Sprintf("seq=%d addr=%#x validation mismatch (squash)", e.seq, e.addr)})
			}
			e.obl = oblResolved
			c.squash(e.seq, sqValidation, e.pc)
			return
		}
		e.obl = oblResolved
	}
}

// bindOblValue makes the load's result available to dependents.
func (c *Core) bindOblValue(e *robEntry, v uint64) {
	if e.state == stDone {
		return
	}
	e.destVal = v
	e.state = stDone
	c.wakeWaiters(e)
}

// startValidation issues the validation access (a normal, filling load).
func (c *Core) startValidation(e *robEntry, s *robSide) {
	c.stats.Validations++
	r := c.port.Load(c.cycle, e.addr)
	s.valDone = r.Done
	s.valLevel = r.Level
	s.valInFlight = true
	if c.obs.On(obs.ClassSDO) {
		c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSDO, Kind: "obl-validate",
			Seq: e.seq, PC: e.pc, Addr: e.addr, Level: r.Level.String(), Dur: r.Done - c.cycle,
			Detail: fmt.Sprintf("seq=%d addr=%#x level=%v", e.seq, e.addr, r.Level)})
	}
}

// recordPrediction accumulates Table III / Figure 7 statistics for one
// resolved Obl-Ld and trains the location predictor (§V-C3). actual is the
// level that held the data.
func (c *Core) recordPrediction(e *robEntry, s *robSide, actual mem.Level) {
	if e.sqForward >= 0 || actual == mem.LevelNone {
		return // store-forwarded: no meaningful level; predictor untouched
	}
	switch {
	case actual == s.oblPred:
		c.stats.PredPrecise++
	case actual < s.oblPred:
		c.stats.PredImprecise++
		c.stats.ImprecisionCycles += c.memCfg.LatencyOf(s.oblPred) - c.memCfg.LatencyOf(actual)
	default:
		c.stats.PredInaccurate++
	}
	c.cfg.LocPred.Update(c.pcAddr(e.pc), actual)
}

// hierCfgOf extracts the memory configuration for latency accounting.
func hierCfgOf(p MemPort) mem.Config {
	type configer interface{ Config() mem.Config }
	if h, ok := p.(configer); ok {
		return h.Config()
	}
	type hierarchyer interface{ Hierarchy() *mem.Hierarchy }
	if h, ok := p.(hierarchyer); ok {
		return h.Hierarchy().Config()
	}
	return mem.DefaultConfig()
}
