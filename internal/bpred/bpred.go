// Package bpred implements the tournament branch predictor from the
// simulated architecture (Table I): a local history predictor, a global
// (gshare-style) predictor and a choice predictor arbitrating between
// them. There is no branch target buffer: every control transfer in the
// ISA is direct, and fetch follows the target it decodes.
//
// Under STT (§III-B) predictions are always safe to make: the predictor's
// state is never a function of tainted data because the core delays Update
// calls for tainted branches until their predicate is untainted.
package bpred

import "fmt"

// Config sizes the predictor tables. All counts must be powers of two.
type Config struct {
	LocalHistoryEntries int // per-PC history registers
	LocalHistoryBits    int // bits of local history
	LocalCounters       int // 2-bit counters indexed by local history
	GlobalCounters      int // 2-bit counters indexed by global history ^ PC
	ChoiceCounters      int // 2-bit counters selecting local vs global
}

// DefaultConfig mirrors a mid-size tournament predictor comparable to
// gem5's default (the paper's Table I says only "Tournament").
func DefaultConfig() Config {
	return Config{
		LocalHistoryEntries: 2048,
		LocalHistoryBits:    11,
		LocalCounters:       2048,
		GlobalCounters:      8192,
		ChoiceCounters:      8192,
	}
}

// Predictor is a tournament branch direction predictor. The zero value is
// not usable; call New.
type Predictor struct {
	cfg           Config
	localHistory  []uint64
	localCounters []uint8 // 2-bit saturating
	globalCounts  []uint8
	choiceCounts  []uint8
	globalHistory uint64

	// Stats
	Lookups     uint64
	Mispredicts uint64
}

// New returns a predictor with the given configuration; zero fields fall
// back to DefaultConfig values.
func New(cfg Config) *Predictor {
	def := DefaultConfig()
	if cfg.LocalHistoryEntries == 0 {
		cfg.LocalHistoryEntries = def.LocalHistoryEntries
	}
	if cfg.LocalHistoryBits == 0 {
		cfg.LocalHistoryBits = def.LocalHistoryBits
	}
	if cfg.LocalCounters == 0 {
		cfg.LocalCounters = def.LocalCounters
	}
	if cfg.GlobalCounters == 0 {
		cfg.GlobalCounters = def.GlobalCounters
	}
	if cfg.ChoiceCounters == 0 {
		cfg.ChoiceCounters = def.ChoiceCounters
	}
	p := &Predictor{
		cfg:           cfg,
		localHistory:  make([]uint64, cfg.LocalHistoryEntries),
		localCounters: make([]uint8, cfg.LocalCounters),
		globalCounts:  make([]uint8, cfg.GlobalCounters),
		choiceCounts:  make([]uint8, cfg.ChoiceCounters),
	}
	// Weakly bias all counters toward taken=false / choice=global.
	for i := range p.localCounters {
		p.localCounters[i] = 1
	}
	for i := range p.globalCounts {
		p.globalCounts[i] = 1
	}
	for i := range p.choiceCounts {
		p.choiceCounts[i] = 1
	}
	return p
}

func taken(counter uint8) bool { return counter >= 2 }

func bump(c uint8, t bool) uint8 {
	if t {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

func (p *Predictor) localIdx(pc uint64) (hist uint64, counterIdx int) {
	hIdx := int(pc) & (p.cfg.LocalHistoryEntries - 1)
	hist = p.localHistory[hIdx] & ((1 << p.cfg.LocalHistoryBits) - 1)
	// Hash the PC into the counter index to reduce cross-branch aliasing of
	// identical history patterns.
	return hist, int(hist^(pc*0x9e3779b9)) & (p.cfg.LocalCounters - 1)
}

func (p *Predictor) globalIdx(pc, hist uint64) int {
	return int(hist^pc) & (p.cfg.GlobalCounters - 1)
}

// Snapshot captures the speculative global history so it can be restored
// on a squash (the core checkpoints it per branch).
type Snapshot struct{ globalHistory uint64 }

// PredictDirection predicts taken/not-taken for the conditional branch at
// pc and speculatively updates the global history with the prediction. The
// returned Snapshot restores history as of *before* this prediction.
func (p *Predictor) PredictDirection(pc uint64) (bool, Snapshot) {
	p.Lookups++
	snap := Snapshot{p.globalHistory}
	_, li := p.localIdx(pc)
	gi := p.globalIdx(pc, p.globalHistory)
	localPred := taken(p.localCounters[li])
	globalPred := taken(p.globalCounts[gi])
	useLocal := taken(p.choiceCounts[gi])
	pred := globalPred
	if useLocal {
		pred = localPred
	}
	p.globalHistory = p.globalHistory<<1 | b2u(pred)
	return pred, snap
}

// Restore rewinds speculative global history to the snapshot (taken at the
// squashed branch's prediction time).
func (p *Predictor) Restore(s Snapshot) { p.globalHistory = s.globalHistory }

// Update trains the direction tables with the resolved outcome of the
// branch at pc, using the Snapshot captured when the branch was predicted
// so the trained global/choice counters are the ones the prediction read.
// mispredicted additionally corrects the speculative global history (shift
// in the true outcome in place of the prediction).
func (p *Predictor) Update(pc uint64, outcome, mispredicted bool, snap Snapshot) {
	hIdx := int(pc) & (p.cfg.LocalHistoryEntries - 1)
	_, li := p.localIdx(pc)
	gi := p.globalIdx(pc, snap.globalHistory)

	localPred := taken(p.localCounters[li])
	globalPred := taken(p.globalCounts[gi])
	// Train the choice predictor only when the components disagree.
	if localPred != globalPred {
		p.choiceCounts[gi] = bump(p.choiceCounts[gi], localPred == outcome)
	}
	p.localCounters[li] = bump(p.localCounters[li], outcome)
	p.globalCounts[gi] = bump(p.globalCounts[gi], outcome)
	p.localHistory[hIdx] = p.localHistory[hIdx]<<1 | b2u(outcome)
	if mispredicted {
		p.Mispredicts++
		// Replace the wrongly-speculated history bit: rebuild from the
		// prediction-time snapshot with the true outcome shifted in.
		p.globalHistory = snap.globalHistory<<1 | b2u(outcome)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// State is the predictor's full serializable state: every table, the
// speculative global history, and the stat counters. It is what warmup
// checkpoints (internal/arch) capture and restore, so a restored
// predictor is indistinguishable from one trained in place.
type State struct {
	LocalHistory  []uint64
	LocalCounters []uint8
	GlobalCounts  []uint8
	ChoiceCounts  []uint8
	GlobalHistory uint64

	Lookups     uint64
	Mispredicts uint64
}

// State snapshots the predictor.
func (p *Predictor) State() State {
	return State{
		LocalHistory:  append([]uint64(nil), p.localHistory...),
		LocalCounters: append([]uint8(nil), p.localCounters...),
		GlobalCounts:  append([]uint8(nil), p.globalCounts...),
		ChoiceCounts:  append([]uint8(nil), p.choiceCounts...),
		GlobalHistory: p.globalHistory,
		Lookups:       p.Lookups,
		Mispredicts:   p.Mispredicts,
	}
}

// SetState restores a snapshot taken from a predictor of identical
// configuration.
func (p *Predictor) SetState(s State) error {
	if len(s.LocalHistory) != len(p.localHistory) ||
		len(s.LocalCounters) != len(p.localCounters) ||
		len(s.GlobalCounts) != len(p.globalCounts) ||
		len(s.ChoiceCounts) != len(p.choiceCounts) {
		return fmt.Errorf("bpred: state table sizes do not match the predictor's configuration")
	}
	copy(p.localHistory, s.LocalHistory)
	copy(p.localCounters, s.LocalCounters)
	copy(p.globalCounts, s.GlobalCounts)
	copy(p.choiceCounts, s.ChoiceCounts)
	p.globalHistory = s.GlobalHistory
	p.Lookups, p.Mispredicts = s.Lookups, s.Mispredicts
	return nil
}
