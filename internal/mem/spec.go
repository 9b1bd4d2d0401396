package mem

// This file is the speculative-visibility layer protection schemes hook
// into: shadow structures that hold the fills of in-flight speculative
// loads so the committed hierarchy never observes a squashed access.
// Two published designs use it (see internal/core's registry):
//
//   - SafeSpec (SpecShadow): speculative loads fill a small per-core
//     shadow cache and shadow TLB; on retire the fill is promoted into
//     the committed hierarchy, on squash it is discarded. The shadow is
//     bounded (shadowLines / shadowTLBEntries) like the paper's
//     MSHR-sized shadow structures.
//   - SpecBox (SpecLabel): cache lines filled speculatively carry a
//     speculation label and stay invisible to probes and to other cores
//     until the filling load commits, which clears the label by moving
//     the line into the committed arrays. The label store is unbounded
//     (labels live in the existing arrays in hardware); translation uses
//     the normal TLB path — SpecBox shields caches only.
//
// Both modes share one timing rule that closes the same-core reload
// channel: a speculative access that misses the shadow consults the
// committed levels tag-only (no Touch, no Fill, no DRAM row-buffer
// update) and a full miss is charged the constant worst-case row-miss
// latency. Timing therefore depends only on committed state established
// before speculation began, never on earlier transient fills — except
// through the shadow itself, whose contents die with the squash.

// SpecMode selects how a Hierarchy treats speculative fills.
type SpecMode uint8

const (
	// SpecOff: no shadow structures; SpecLoad must not be called.
	SpecOff SpecMode = iota
	// SpecShadow is SafeSpec's bounded shadow cache + shadow TLB.
	SpecShadow
	// SpecLabel is SpecBox's unbounded speculation-labelled line store.
	SpecLabel
)

// String names the mode.
func (m SpecMode) String() string {
	switch m {
	case SpecShadow:
		return "shadow"
	case SpecLabel:
		return "label"
	}
	return "off"
}

// Shadow capacity in SpecShadow mode, sized like the load queue it backs
// (one in-flight fill per LQ entry, doubled for squash slack).
const (
	shadowLines      = 64
	shadowTLBEntries = 16
)

// specEntry is one speculatively-filled line.
type specEntry struct {
	seq uint64 // sequence number of the filling load (squash filter)
	lru uint64 // shadow replacement stamp (SpecShadow eviction)
}

// SetSpecMode switches the hierarchy's speculative-visibility mode and
// allocates the shadow structures. The pipeline calls it once at core
// construction; switching modes mid-run discards shadow contents.
func (h *Hierarchy) SetSpecMode(m SpecMode) {
	h.specMode = m
	if m == SpecOff {
		h.spec, h.specTLB = nil, nil
		return
	}
	h.spec = make(map[uint64]specEntry)
	h.specTLB = make(map[uint64]uint64)
}

// SpecTranslate is the translation path for speculative loads; seq is
// the translating load's sequence number (the squash-filter tag for a
// shadow-TLB fill). Under SpecLabel it is the normal TLB path (SpecBox
// shields caches only). Under SpecShadow the committed TLB is consulted
// tag-only; a miss walks into the shadow TLB, so committed TLB entries
// and replacement state carry no trace of squashed speculation.
func (h *Hierarchy) SpecTranslate(now uint64, addr uint64, seq uint64) (done uint64, hit bool) {
	if h.specMode != SpecShadow {
		return h.tlb.Translate(now, addr)
	}
	if h.tlb.Probe(addr) {
		return now, true
	}
	page := addr >> h.cfg.TLB.PageBits
	if _, ok := h.specTLB[page]; ok {
		return now, true // shadow TLB hit: L1-equivalent
	}
	h.SpecTLBWalks++
	if len(h.specTLB) >= shadowTLBEntries {
		// Evict the entry with the smallest fill seq (oldest speculation;
		// deterministic: seqs are unique).
		var victim uint64
		var vseq uint64 = ^uint64(0)
		for p, s := range h.specTLB {
			if s < vseq {
				victim, vseq = p, s
			}
		}
		delete(h.specTLB, victim)
	}
	h.specTLB[page] = seq
	return now + h.cfg.TLB.WalkCycles, false
}

// SpecLoad performs a speculative load under the active SpecMode: shadow
// hits cost L1 timing; misses consult the committed levels tag-only and
// fill the shadow, never the committed arrays. seq is the load's
// sequence number, the handle CommitSpec/SquashSpec resolve it by.
func (h *Hierarchy) SpecLoad(now uint64, addr uint64, seq uint64) AccessResult {
	if h.specMode == SpecOff {
		panic("mem: SpecLoad without SetSpecMode")
	}
	h.SpecLoads++
	la := LineAddr(addr)
	if e, ok := h.spec[la]; ok {
		h.SpecShadowHits++
		h.specStamp++
		e.lru = h.specStamp
		h.spec[la] = e
		t := h.l1d.ReserveBank(now, addr) + h.inc(L1)
		return AccessResult{Done: t, Level: L1}
	}

	// Committed presence, tag-only: no Touch, no Fill, no row-buffer
	// update — the walk leaves committed state byte-identical.
	slice := h.shared.slice(addr)
	var level Level
	switch {
	case h.l1d.Lookup(addr):
		level = L1
	case h.l2.Lookup(addr):
		level = L2
	case slice.Lookup(addr):
		level = L3
	default:
		level = LevelMem
	}

	t := h.l1d.ReserveBank(now, addr) + h.inc(L1)
	if level != L1 {
		// A private, non-merged MSHR is held at the L1 for the miss's
		// duration (merging with a committed miss would couple their
		// timing; the synthetic key lives in the Obl-Ld key space).
		h.oblSeq++
		key := 1<<63 | h.oblSeq
		start, _, _ := h.l1d.AcquireMSHR(t, key, false)
		t = start
		t = h.l2.ReserveBank(t, addr) + h.inc(L2)
		if level != L2 {
			t = slice.ReserveBank(t, addr) + h.inc(L3)
			if level != L3 {
				// Constant worst-case DRAM: row-state-blind, so the
				// latency of a squashed miss teaches the prober nothing.
				t += h.cfg.DRAM.RowMissLat
			}
		}
		h.l1d.CommitMSHR(key, t)
	}
	h.fillShadow(la, seq)
	return AccessResult{Done: t, Level: level}
}

// fillShadow inserts a line into the shadow, evicting LRU in the bounded
// SpecShadow mode.
func (h *Hierarchy) fillShadow(la uint64, seq uint64) {
	if h.specMode == SpecShadow && len(h.spec) >= shadowLines {
		var victim uint64
		var vlru uint64 = ^uint64(0)
		for a, e := range h.spec {
			if e.lru < vlru {
				victim, vlru = a, e.lru
			}
		}
		delete(h.spec, victim)
		h.SpecEvictions++
	}
	h.specStamp++
	h.spec[la] = specEntry{seq: seq, lru: h.specStamp}
}

// CommitSpec promotes a retiring speculative load's fill into the
// committed hierarchy: the line is filled at every level (as the
// original walk would have) and, under SpecShadow, the page is installed
// in the committed TLB. The shadow entry is released.
func (h *Hierarchy) CommitSpec(addr uint64, seq uint64) {
	la := LineAddr(addr)
	delete(h.spec, la)
	h.SpecCommits++
	h.shared.slice(addr).Fill(addr, false)
	h.l2.Fill(addr, false)
	h.l1d.Fill(addr, false)
	if h.specMode == SpecShadow {
		delete(h.specTLB, addr>>h.cfg.TLB.PageBits)
		h.tlb.Install(addr)
	}
}

// SquashSpec discards every shadow entry filled by a load with sequence
// number >= from: squashed speculation leaves no trace anywhere.
func (h *Hierarchy) SquashSpec(from uint64) {
	for la, e := range h.spec {
		if e.seq >= from {
			delete(h.spec, la)
			h.SpecDiscards++
		}
	}
	if h.specMode == SpecShadow {
		for p, s := range h.specTLB {
			if s >= from {
				delete(h.specTLB, p)
			}
		}
	}
}

// specFlush drops the shadow copy of a flushed line (clflush reaches the
// shadow too: a line the attacker flushed must not linger speculatively
// visible).
func (h *Hierarchy) specFlush(addr uint64) {
	if h.spec != nil {
		delete(h.spec, LineAddr(addr))
	}
}

// specInvalidate drops the shadow copy of an externally-invalidated line.
func (h *Hierarchy) specInvalidate(lineAddr uint64) {
	if h.spec != nil {
		delete(h.spec, LineAddr(lineAddr))
	}
}

// specReset clears all speculative state (checkpoint restore: the shadow
// is transient by definition and never part of a warm snapshot).
func (h *Hierarchy) specReset() {
	if h.specMode == SpecOff {
		return
	}
	h.spec = make(map[uint64]specEntry)
	h.specTLB = make(map[uint64]uint64)
}
