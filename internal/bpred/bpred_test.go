package bpred

import (
	"testing"
	"testing/quick"
)

func trainLoop(p *Predictor, pc uint64, pattern []bool, reps int) {
	for r := 0; r < reps; r++ {
		for _, outcome := range pattern {
			pred, snap := p.PredictDirection(pc)
			p.Update(pc, outcome, pred != outcome, snap)
		}
	}
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(Config{})
	trainLoop(p, 0x40, []bool{true}, 64)
	pred, _ := p.PredictDirection(0x40)
	if !pred {
		t.Error("should predict taken after unanimous training")
	}
}

func TestLearnsAlwaysNotTaken(t *testing.T) {
	p := New(Config{})
	trainLoop(p, 0x80, []bool{false}, 64)
	pred, _ := p.PredictDirection(0x80)
	if pred {
		t.Error("should predict not-taken after unanimous training")
	}
}

func TestLearnsLoopExitPattern(t *testing.T) {
	// Pattern TTTN (loop of 4): the local predictor with history should get
	// high accuracy after warmup.
	p := New(Config{})
	pattern := []bool{true, true, true, false}
	trainLoop(p, 0x100, pattern, 200)
	correct := 0
	total := 0
	for r := 0; r < 50; r++ {
		for _, outcome := range pattern {
			pred, snap := p.PredictDirection(0x100)
			p.Update(0x100, outcome, pred != outcome, snap)
			if pred == outcome {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("TTTN accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestMispredictCounting(t *testing.T) {
	p := New(Config{})
	pred, snap := p.PredictDirection(0x10)
	p.Update(0x10, !pred, true, snap)
	if p.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", p.Mispredicts)
	}
	if p.Lookups != 1 {
		t.Fatalf("lookups = %d, want 1", p.Lookups)
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := New(Config{})
	trainLoop(p, 0x20, []bool{true}, 32) // make the prediction taken
	before := p.globalHistory
	_, snap := p.PredictDirection(0x20)
	_, _ = p.PredictDirection(0x20)
	if p.globalHistory == before {
		t.Fatal("history should have advanced")
	}
	p.Restore(snap)
	if p.globalHistory != before {
		t.Fatalf("restore: history = %#x, want %#x", p.globalHistory, before)
	}
}

func TestCountersStayInBounds(t *testing.T) {
	// Property: after arbitrary update sequences, all 2-bit counters remain
	// in [0,3].
	p := New(Config{LocalHistoryEntries: 16, LocalCounters: 16, GlobalCounters: 16, ChoiceCounters: 16})
	f := func(pcs []uint8, outcomes []bool) bool {
		n := len(pcs)
		if len(outcomes) < n {
			n = len(outcomes)
		}
		for i := 0; i < n; i++ {
			pc := uint64(pcs[i])
			pred, snap := p.PredictDirection(pc)
			p.Update(pc, outcomes[i], pred != outcomes[i], snap)
		}
		for _, c := range p.localCounters {
			if c > 3 {
				return false
			}
		}
		for _, c := range p.globalCounts {
			if c > 3 {
				return false
			}
		}
		for _, c := range p.choiceCounts {
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := New(Config{})
	def := DefaultConfig()
	if p.cfg != def {
		t.Fatalf("zero config should expand to defaults, got %+v", p.cfg)
	}
}

func TestDistinctPCsIndependent(t *testing.T) {
	// Two branches with opposite biases, trained interleaved (as a real
	// program would). In steady state each must predict its own bias with
	// high accuracy despite sharing tables.
	p := New(Config{})
	step := func(count bool) (correct, total int) {
		for _, br := range []struct {
			pc      uint64
			outcome bool
		}{{0x1000, true}, {0x2000, false}} {
			pred, snap := p.PredictDirection(br.pc)
			p.Update(br.pc, br.outcome, pred != br.outcome, snap)
			if count {
				total++
				if pred == br.outcome {
					correct++
				}
			}
		}
		return correct, total
	}
	for i := 0; i < 200; i++ {
		step(false)
	}
	correct, total := 0, 0
	for i := 0; i < 50; i++ {
		c, n := step(true)
		correct += c
		total += n
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("steady-state accuracy = %.2f, want >= 0.9", acc)
	}
}
