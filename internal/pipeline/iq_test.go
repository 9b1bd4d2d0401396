package pipeline

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Directed tests of the issue queue's ready bitmap and per-producer waiter
// lists: the corners no kernel golden pins by construction.

// iqCore builds a core over prog with a warm I-cache, so the frontend
// delivers Width instructions a cycle and the timelines below depend only on
// execution latencies.
func iqCore(cfg Config, prog *isa.Program) *Core {
	h := mem.NewHierarchy(mem.DefaultConfig())
	for pc := 0; pc <= prog.Len(); pc += 8 {
		h.FetchAccess(0, cfg.CodeBase+uint64(pc)*8)
	}
	return New(cfg, prog, isa.NewMemory(), h)
}

// stepChecked advances one cycle and runs the scan oracle.
func stepChecked(t *testing.T, c *Core) {
	t.Helper()
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", c.cycle, err)
	}
}

// liveAt returns the live entry fetched from pc (nil: none).
func liveAt(c *Core, pc int) *robEntry {
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		if e := c.entry(seq); e.pc == pc {
			return e
		}
	}
	return nil
}

// waitersOf walks p's waiter list, head first.
func waitersOf(c *Core, p *robEntry) (out []uint64) {
	for w := p.waitHead; w != 0 && len(out) <= len(c.rob); w = c.entry(w).waitNext {
		out = append(out, w)
	}
	return out
}

func isReady(c *Core, seq uint64) bool {
	w, bit := c.slotBit(seq)
	return c.ready[w]&bit != 0
}

// checkGoldenRegs compares the halted core's registers with the functional
// model's.
func checkGoldenRegs(t *testing.T, c *Core, prog *isa.Program) {
	t.Helper()
	g, err := arch.Exec(prog, isa.NewMemory(), nil, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs() != g.Regs {
		t.Fatalf("registers diverge from the functional model:\n got  %v\n want %v", c.Regs(), g.Regs)
	}
}

// TestIQSquashUnlinksWaitersBeforeSeqReuse: a producer survives a squash that
// removes three of its five waiters (from the middle of its list); the freed
// seqs are renamed again as an independent instruction and as a new consumer;
// when the producer completes the independent instruction is neither woken a
// second time nor lost, and every surviving waiter issues.
func TestIQSquashUnlinksWaitersBeforeSeqReuse(t *testing.T) {
	prog := isa.NewBuilder().
		MovI(isa.R1, 0x4000).
		MovI(isa.R2, 1).
		MovI(isa.R3, 2).
		Label("P").Load(isa.R4, isa.R1, 0). // cold line: ~180 cycles
		Label("W00").Add(isa.R9, isa.R4, isa.R2).
		Label("M").Div(isa.R8, isa.R2, isa.R2).            // 20 cycles
		Label("W0").Add(isa.R7, isa.R8, isa.R4).           // hangs on M, then on P: lands at the head of P's list
		Label("B").Beq(isa.R8, isa.R2, "T").               // taken, predicted not taken; resolves once M is done
		Label("W").Add(isa.R5, isa.R4, isa.R2).            // wrong path, waits on P
		Label("W2").Add(isa.R10, isa.R4, isa.R3).          // wrong path, waits on P
		Label("T").Label("X").Add(isa.R6, isa.R2, isa.R3). // correct path: independent, takes W's seq
		Label("Y").Add(isa.R11, isa.R4, isa.R6).           // takes W2's seq and waits on P again
		Halt().
		MustBuild()
	pc := prog.Labels
	c := iqCore(DefaultConfig(), prog)

	var freed uint64      // seq of W, reused by X
	var xState entryState // X's progress: must never go backwards
	xIssues, pDone := 0, false
	for !c.Halted() {
		squashes := c.stats.Squashes[sqBranch]
		var before []uint64
		if p := liveAt(c, pc["P"]); p != nil {
			before = waitersOf(c, p)
		}
		stepChecked(t, c)

		p := liveAt(c, pc["P"])
		if c.stats.Squashes[sqBranch] > squashes {
			if freed != 0 {
				t.Fatal("more than one branch squash: the program drifted")
			}
			b := liveAt(c, pc["B"])
			if p == nil || p.state == stDone || b == nil {
				t.Fatal("setup: the producer must still be in flight when the branch squashes")
			}
			freed = b.seq + 1
			w0, w00 := liveAt(c, pc["W0"]).seq, liveAt(c, pc["W00"]).seq
			if want := []uint64{w0, freed + 3, freed + 1, freed, w00}; !slices.Equal(before, want) {
				t.Fatalf("setup: producer's waiters before the squash = %v, want %v (W0, wrong-path Y, W2, W, W00)", before, want)
			}
			if got, want := waitersOf(c, p), []uint64{w0, w00}; !slices.Equal(got, want) {
				t.Fatalf("producer's waiters after the squash = %v, want the survivors %v", got, want)
			}
		}
		if x := liveAt(c, pc["X"]); x != nil && freed != 0 {
			if x.seq != freed {
				t.Fatalf("setup: X renamed as seq %d, want the freed seq %d", x.seq, freed)
			}
			if x.state < xState {
				t.Fatalf("cycle %d: X went from state %d back to %d: woken by a stale link", c.cycle, xState, x.state)
			}
			if xState == stWaiting && x.state != stWaiting {
				xIssues++
			}
			xState = x.state
			if p != nil && slices.Contains(waitersOf(c, p), x.seq) {
				t.Fatalf("cycle %d: independent X is on the producer's waiter list", c.cycle)
			}
			if p != nil && p.state == stDone && !pDone {
				pDone = true
				if x.state != stDone || isReady(c, x.seq) {
					t.Fatalf("cycle %d: producer completed; X state %d ready %v, want done and not ready", c.cycle, x.state, isReady(c, x.seq))
				}
			}
		}
		if c.iqN < 0 {
			t.Fatalf("cycle %d: IQ occupancy %d", c.cycle, c.iqN)
		}
	}
	if freed == 0 || !pDone || xIssues != 1 {
		t.Fatalf("setup: squash seen %v, producer completion seen %v, X issued %d times", freed != 0, pDone, xIssues)
	}
	checkGoldenRegs(t, c, prog)
}

// TestIQAgeOrderAcrossRingWrap: a 16-slot ROB is a fraction of one bitmap
// word. Four consumers of one slow load sit at ring positions 14, 15, 0, 1
// with the head at 13; they wake together and, one ALU port, must issue
// oldest first across the wrap. They also fill the 4-entry IQ: dispatch stalls
// until they drain, then the rest of the program runs.
func TestIQAgeOrderAcrossRingWrap(t *testing.T) {
	b := isa.NewBuilder().
		MovI(isa.R1, 0x4000).
		MovI(isa.R2, 7)
	for i := 0; i < 10; i++ {
		b.Nop()
	}
	prog := b.
		Label("P").Load(isa.R3, isa.R1, 0). // seq 13
		Add(isa.R4, isa.R3, isa.R2).        // seqs 14..17: positions 14, 15, 0, 1
		Sub(isa.R5, isa.R3, isa.R2).
		Xor(isa.R6, isa.R3, isa.R2).
		Or(isa.R7, isa.R3, isa.R2).
		Label("next").AddI(isa.R8, isa.R2, 1). // ready, but the IQ is full
		AddI(isa.R9, isa.R8, 1).
		Halt().
		MustBuild()
	cfg := DefaultConfig()
	cfg.ROBSize, cfg.IQSize, cfg.IntALUs = 16, 4, 1
	c := iqCore(cfg, prog)
	if len(c.rob) != 16 || len(c.ready) != 1 {
		t.Fatalf("ring of %d slots, %d bitmap words; want 16 and 1", len(c.rob), len(c.ready))
	}

	issuedAt := map[uint64]uint64{} // seq → cycle it left the IQ
	stalled := 0                    // cycles dispatch was held by the full IQ
	var headAtWake uint64           // head when the first consumer issued
	for !c.Halted() {
		stepChecked(t, c)
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			if _, seen := issuedAt[seq]; !seen && c.entry(seq).state != stWaiting {
				issuedAt[seq] = c.cycle
			}
		}
		if c.iqN == cfg.IQSize && c.fetchBuf.n > 0 && c.fetchBuf.at(0).pc == prog.Labels["next"] {
			stalled++
			if p := liveAt(c, prog.Labels["P"]); p == nil || p.seq != 13 || c.tailSeq != 18 {
				t.Fatalf("setup: IQ full with tail %d, want the load as seq 13 and its four consumers (14..17) behind it", c.tailSeq)
			}
		}
		if headAtWake == 0 && len(issuedAt) > 13 { // seqs 1..13 issued (or never waited); this is the first consumer
			headAtWake = c.headSeq
		}
	}
	if stalled < 100 || headAtWake != 13 {
		t.Fatalf("setup: dispatch stalled on the full IQ for %d cycles (want the load's whole latency) and the consumers woke with the head at %d (want the load, 13)",
			stalled, headAtWake)
	}
	for seq := uint64(14); seq < 19; seq++ {
		if issuedAt[seq+1] != issuedAt[seq]+1 {
			t.Fatalf("seq %d issued at cycle %d, seq %d at %d: want one a cycle, oldest first (issue cycles %v)",
				seq, issuedAt[seq], seq+1, issuedAt[seq+1], issuedAt)
		}
	}
	checkGoldenRegs(t, c, prog)
}

// TestIQWaiterOfTwoProducers: a consumer whose sources complete in different
// cycles moves from the first producer's list to the second's and issues the
// cycle the second completes — in either operand order.
func TestIQWaiterOfTwoProducers(t *testing.T) {
	prog := isa.NewBuilder().
		MovI(isa.R1, 1000).
		MovI(isa.R2, 7).
		Label("div").Div(isa.R3, isa.R1, isa.R2). // 20 cycles
		Label("mul").Mul(isa.R4, isa.R1, isa.R2). // 3 cycles
		Label("a").Add(isa.R5, isa.R4, isa.R3).   // first source completes first: re-filed onto div
		Label("b").Add(isa.R6, isa.R3, isa.R4).   // hangs on div from the start
		Halt().
		MustBuild()
	pc := prog.Labels
	c := iqCore(DefaultConfig(), prog)

	var mulDone, divDone uint64
	issuedAt := map[string]uint64{}
	for !c.Halted() {
		stepChecked(t, c)
		div, mul := liveAt(c, pc["div"]), liveAt(c, pc["mul"])
		if mulDone == 0 && mul != nil && mul.state == stDone {
			mulDone = c.cycle
		}
		if divDone == 0 && div != nil && div.state == stDone {
			divDone = c.cycle
		}
		for _, name := range []string{"a", "b"} {
			e := liveAt(c, pc[name])
			if e == nil {
				continue
			}
			if issuedAt[name] == 0 && e.state != stWaiting {
				issuedAt[name] = c.cycle
			}
			if mulDone != 0 && divDone == 0 && (e.state != stWaiting || e.waitOn != div.seq || isReady(c, e.seq)) {
				t.Fatalf("cycle %d: %s has state %d, waitOn %d, ready %v while div (seq %d) is in flight",
					c.cycle, name, e.state, e.waitOn, isReady(c, e.seq), div.seq)
			}
		}
	}
	if mulDone == 0 || mulDone >= divDone {
		t.Fatalf("setup: mul done at %d, div at %d; want mul first", mulDone, divDone)
	}
	if issuedAt["a"] != divDone || issuedAt["b"] != divDone {
		t.Fatalf("consumers issued at %v, want both at cycle %d when the second source completed", issuedAt, divDone)
	}
	checkGoldenRegs(t, c, prog)
}
