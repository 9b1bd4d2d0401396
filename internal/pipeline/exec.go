package pipeline

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/obs"
)

// issue selects ready instructions from the issue queue in age order,
// subject to functional-unit availability and the active protection
// policy's transmitter rules, and begins their execution. A slot marked
// blocked on an in-flight producer is not offered to issue* nor, until some
// producer completes (c.wake), re-polled: an attempt failing on an unready
// operand has no side effect (the Scheme contract). Attempts failing for
// another reason run every cycle — they tick counters.
func (c *Core) issue() {
	issued := 0
	wake := c.wake
	c.wake = false
	kept := c.iq[:0]
	for _, s := range c.iq {
		if s.seq >= c.tailSeq {
			break // a store issued above squashed this entry and every younger one
		}
		e := c.entry(s.seq)
		if issued >= c.cfg.Width {
			c.wake = wake // slots from here on are not re-polled: keep the wake-up pending
		} else if w := s.waitOn; w == 0 || wake && (w < c.headSeq || c.entry(w).state == stDone) {
			s.waitOn = c.blockedOn(e) // unmarked, or woken and its producer finished: poll
		}
		if issued >= c.cfg.Width || s.waitOn != 0 {
			kept = append(kept, s)
			continue
		}
		since := e.delayedSince
		ok := false
		switch {
		case e.isCond():
			ok = c.issueBranch(e)
		case e.isLoad():
			ok = c.issueLoad(e)
		case e.isStore():
			ok = c.issueStore(e)
		case e.is(isa.ClassFP):
			ok = c.issueFP(e)
		default:
			ok = c.issueALU(e)
		}
		if !ok {
			kept = append(kept, s)
			c.changed = c.changed || e.delayedSince != since
			continue
		}
		issued++
		c.changed = true
		if !e.isStore() && e.obl == oblNone { // stores complete by data bind, Obl-Lds through stepObl
			c.exec = append(c.exec, s.seq)
		}
	}
	c.iq = kept
}

// blockedOn returns the first in-flight producer among the sources e needs
// to issue (0: none).
func (c *Core) blockedOn(e *robEntry) uint64 {
	for i := 0; i < int(e.nNeed); i++ {
		if p := e.src[i].producer; p >= 0 && uint64(p) >= c.headSeq && c.entry(uint64(p)).state != stDone {
			return uint64(p)
		}
	}
	return 0
}

// insertSeq inserts seq into an age-ordered list.
func insertSeq(q []uint64, seq uint64) []uint64 {
	i, _ := slices.BinarySearch(q, seq)
	return slices.Insert(q, i, seq)
}

func (c *Core) issueALU(e *robEntry) bool {
	// OpRdCyc is fully serialising (lfence;rdtsc;lfence): it issues only
	// once it is the oldest instruction, so timing reads order with every
	// older access — which is what makes the in-simulator covert-channel
	// measurements meaningful.
	if e.in.Op == isa.OpRdCyc && e.seq != c.headSeq {
		return false
	}
	ready, vals, root := c.srcsReady(e)
	if !ready || c.intPortsBusy >= c.cfg.IntALUs {
		return false
	}
	c.intPortsBusy++
	e.destVal = isa.EvalALU(e.in, vals[0], vals[1], c.cycle)
	e.destRoot = root
	e.doneAt = c.cycle + opLatency(e.in, vals[0], vals[1], e.destVal, false)
	e.state = stExecuting
	return true
}

func (c *Core) issueFP(e *robEntry) bool {
	ready, vals, root := c.srcsReady(e)
	if !ready {
		return false
	}
	isTx := e.is(isa.ClassFPTransmitter) && c.cfg.FPTransmitters
	if isTx && c.tainted(root) {
		// The scheme's transmitter rule (STT delay, SDO fast-path DO
		// execution); handled=false falls through to the normal path.
		if issued, handled := c.scheme.IssueTaintedFP(c, e, vals, root); handled {
			return issued
		}
	}
	if c.fpPortsBusy >= c.cfg.FPUnits {
		return false
	}
	c.fpPortsBusy++
	e.destVal = isa.EvalALU(e.in, vals[0], vals[1], c.cycle)
	e.destRoot = root
	if isa.FPSlowPath(e.in.Op, vals[0], vals[1], e.destVal) {
		// An operand-dependent slow-path execution: the timing channel the
		// FP transmitter protections exist to close.
		c.stats.FPSlowPathExecs++
	}
	e.doneAt = c.cycle + opLatency(e.in, vals[0], vals[1], e.destVal, false)
	e.state = stExecuting
	return true
}

func (c *Core) issueBranch(e *robEntry) bool {
	ready, vals, root := c.srcsReady(e)
	if !ready || c.intPortsBusy >= c.cfg.IntALUs {
		return false
	}
	c.intPortsBusy++
	e.actualTaken = isa.BranchTaken(e.in.Op, vals[0], vals[1])
	if e.actualTaken {
		e.actualTarget = e.in.Target
	} else {
		e.actualTarget = e.pc + 1
	}
	e.mispredicted = e.actualTaken != e.predTaken
	e.destRoot = root // predicate root: gates the resolution effects
	e.doneAt = c.cycle + latALU
	e.state = stExecuting
	return true
}

func (c *Core) issueStore(e *robEntry) bool {
	// AGU: the address source must be ready; data may bind later.
	v, ok, root := c.operandInfo(e.src[0])
	if !ok || c.memPortsBusy >= c.cfg.MemPorts {
		return false
	}
	c.memPortsBusy++
	e.addr = v + uint64(e.in.Imm)
	e.addrValid = true
	e.addrRoot = root
	if dv, dok, _ := c.operandInfo(e.src[1]); dok {
		e.sqData = dv
		e.sqDataReady = true
		e.state = stDone
	} else {
		e.state = stExecuting
		e.doneAt = ^uint64(0) // completed by data bind, not by time
		c.stData = append(c.stData, e.seq)
	}
	c.stats.Stores++
	if c.obs.On(obs.ClassIssue) {
		c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassIssue, Kind: "issue-store",
			Seq: e.seq, PC: e.pc, Addr: e.addr,
			Detail: fmt.Sprintf("seq=%d pc=%d addr=%#x data-ready=%v", e.seq, e.pc, e.addr, e.sqDataReady)})
	}
	c.checkStoreViolation(e)
	return true
}

// completeExecution retires finished executions (exec) into the "done" state,
// then binds late store data (stData): a store is younger than the producer
// of its data, so this is the order a scan of the window saw them in.
func (c *Core) completeExecution() {
	kept, next := c.exec[:0], noSeq
	for _, seq := range c.exec {
		e := c.entry(seq)
		if c.cycle < e.doneAt {
			kept = append(kept, seq)
			next = min(next, e.doneAt)
			continue
		}
		e.state = stDone
		if e.isCond() {
			e.resolved = true
		}
		c.changed, c.wake = true, true
	}
	c.exec, c.nextDone = kept, next

	waiting := c.stData[:0]
	for _, seq := range c.stData {
		e := c.entry(seq)
		if dv, ok, _ := c.operandInfo(e.src[1]); ok {
			e.sqData = dv
			e.sqDataReady = true
			e.state = stDone
			c.changed = true
		} else {
			waiting = append(waiting, seq)
		}
	}
	c.stData = waiting
}
