package pipeline

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/isa"
	"repro/internal/obs"
)

// issue offers the ready set — waiting entries whose needed sources are all
// bound — to the functional units in age order, subject to port availability
// and the active protection policy's transmitter rules, until Width have
// issued. An entry hanging on an in-flight producer is not visited at all: an
// attempt failing on an unready operand has no side effect (the Scheme
// contract). A ready entry that fails for another reason (taint delay, ports,
// a store-queue stall) keeps its bit and is retried every cycle — it ticks
// counters.
//
// Ring position is seq&mask, so age order is ring order from the head's
// position round to it again: the head's word first (its bits from the head
// up) and last (its bits below the head). A ring shorter than 64 slots is
// that one word, twice.
func (c *Core) issue() {
	mask := uint64(len(c.rob) - 1)
	start := c.headSeq & mask
	words := uint64(len(c.ready)) // a power of two, like len(c.rob)
	issued := 0
	for i := uint64(0); i <= words; i++ {
		wi := (start>>6 + i) & (words - 1)
		word := c.ready[wi]
		if i == 0 {
			word &= ^uint64(0) << (start & 63)
		}
		if i == words {
			word &= 1<<(start&63) - 1
		}
		for ; word != 0; word &= word - 1 {
			pos := wi<<6 | uint64(bits.TrailingZeros64(word))
			seq := c.headSeq + (pos-start)&mask
			if seq >= c.tailSeq {
				return // a store issued above squashed this entry and every younger one; word is a stale copy
			}
			e := &c.rob[pos]
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
				c.changed = c.changed || e.delayedSince != since
				continue
			}
			c.ready[wi] &^= 1 << (pos & 63)
			c.iqN--
			c.changed = true
			if !e.isStore() && e.obl == oblNone { // stores complete by data bind, Obl-Lds through stepObl
				c.exec = append(c.exec, seq)
			}
			if issued++; issued == c.cfg.Width {
				return
			}
		}
	}
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

// enqueue files a waiting entry in the issue queue: on the waiter list of the
// first in-flight producer it needs or, with none left, in the ready set.
// rename files every entry once; after that only wakeWaiters moves it, because
// readiness is monotone: a bound producer stays bound until it commits, and a
// squashed producer takes its (younger) consumers with it.
func (c *Core) enqueue(e *robEntry) {
	e.waitOn, e.waitNext = c.blockedOn(e), 0
	if e.waitOn != 0 {
		p := c.entry(e.waitOn)
		e.waitNext, p.waitHead = p.waitHead, e.seq
		return
	}
	w, bit := c.slotBit(e.seq)
	c.ready[w] |= bit
}

// wakeWaiters re-files every entry hanging on p, whose result was just bound
// (a waiter may hang next on its second source). It is called from the only
// two places an entry with a destination becomes stDone: completeExecution and
// bindOblValue. Stores bind their data without a destination and the ops
// rename marks stDone directly (Nop, Halt, Jmp, Flush) write no register, so
// nothing ever waits on those; CheckInvariants would find a waiter left
// hanging on a bound producer.
func (c *Core) wakeWaiters(p *robEntry) {
	w := p.waitHead
	p.waitHead = 0
	for w != 0 {
		e := c.entry(w)
		w = e.waitNext
		c.enqueue(e)
	}
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
	if e.op == isa.OpRdCyc && e.seq != c.headSeq {
		return false
	}
	ready, vals, root := c.srcsReady(e)
	if !ready || c.intPortsBusy >= c.cfg.IntALUs {
		return false
	}
	c.intPortsBusy++
	e.destVal = isa.EvalALU(*c.instr(e), vals[0], vals[1], c.cycle)
	e.destRoot = root
	e.doneAt = c.cycle + opLatency(e.op, vals[0], vals[1], e.destVal, false)
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
	e.destVal = isa.EvalALU(*c.instr(e), vals[0], vals[1], c.cycle)
	e.destRoot = root
	if isa.FPSlowPath(e.op, vals[0], vals[1], e.destVal) {
		// An operand-dependent slow-path execution: the timing channel the
		// FP transmitter protections exist to close.
		c.stats.FPSlowPathExecs++
	}
	e.doneAt = c.cycle + opLatency(e.op, vals[0], vals[1], e.destVal, false)
	e.state = stExecuting
	return true
}

func (c *Core) issueBranch(e *robEntry) bool {
	ready, vals, root := c.srcsReady(e)
	if !ready || c.intPortsBusy >= c.cfg.IntALUs {
		return false
	}
	c.intPortsBusy++
	s := c.side(e.seq)
	s.actualTaken = isa.BranchTaken(e.op, vals[0], vals[1])
	if s.actualTaken {
		s.actualTarget = c.instr(e).Target
	} else {
		s.actualTarget = e.pc + 1
	}
	s.mispredicted = s.actualTaken != s.predTaken
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
	e.addr = v + uint64(c.instr(e).Imm)
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

// completeExecution retires finished executions (exec) into the "done" state
// and wakes their waiters, then binds late store data (stData): a store is
// younger than the producer of its data, so this is the order a scan of the
// window saw them in.
func (c *Core) completeExecution() {
	n, next := 0, noSeq // exec[:n] is what stays
	for i, seq := range c.exec {
		e := c.entry(seq)
		if c.cycle < e.doneAt {
			if n != i {
				c.exec[n] = seq
			}
			n++
			next = min(next, e.doneAt)
			continue
		}
		e.state = stDone
		if e.isCond() {
			e.resolved = true
			c.brsDue = true
		}
		c.wakeWaiters(e)
		c.changed = true
	}
	c.exec, c.nextDone = c.exec[:n], next

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
