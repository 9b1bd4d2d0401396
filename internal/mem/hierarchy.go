package mem

import "repro/internal/obs"

// AccessResult describes a completed normal-path access.
type AccessResult struct {
	Done  uint64 // cycle the data is available
	Level Level  // level that served the request
}

// OblResult describes a data-oblivious lookup (the Obl-Ld's DO variant
// execution, §V-B). Timing is a function of the predicted level and public
// contention only.
type OblResult struct {
	Start     uint64 // when the lookup began, after public contention
	Done      uint64 // when the response from the *predicted* level arrives
	EarlyDone uint64 // when the hit level's response arrives (== Done if no hit)
	Found     Level  // closest level holding the line, LevelNone if absent up to the prediction
}

// Shared is the memory system state shared by all cores: the sliced L3,
// the DRAM controller, and the list of attached cores (used to broadcast
// invalidations; the full MESI directory lives in internal/coherence).
type Shared struct {
	cfg    Config
	slices []*Cache
	dram   *DRAM
	cores  []*Hierarchy
}

// NewShared builds the shared L3 + DRAM. The configured L3 size is split
// evenly across L3Slices slices.
func NewShared(cfg Config) *Shared {
	if cfg.L3Slices <= 0 {
		cfg.L3Slices = 1
	}
	sliceCfg := cfg.L3
	sliceCfg.SizeBytes = cfg.L3.SizeBytes / cfg.L3Slices
	s := &Shared{cfg: cfg, dram: NewDRAM(cfg.DRAM)}
	for i := 0; i < cfg.L3Slices; i++ {
		s.slices = append(s.slices, NewCache(sliceCfg))
	}
	return s
}

// Config returns the shared configuration.
func (s *Shared) Config() Config { return s.cfg }

// DRAMStats exposes the controller for stats readers.
func (s *Shared) DRAMStats() *DRAM { return s.dram }

// LLCStats returns the aggregate hit/miss counts across the L3 slices
// (the whole last-level cache), for MPKI-style derived statistics.
func (s *Shared) LLCStats() (hits, misses uint64) {
	for _, sl := range s.slices {
		hits += sl.Hits
		misses += sl.Misses
	}
	return hits, misses
}

// slice returns the L3 slice serving addr ("a hash function set at design
// time determines the slice associated with a cache line", §VI-B1).
func (s *Shared) slice(addr uint64) *Cache {
	if len(s.slices) == 1 {
		return s.slices[0]
	}
	h := (LineAddr(addr) / LineBytes) * 0x9e3779b97f4a7c15
	return s.slices[(h>>33)%uint64(len(s.slices))]
}

// AttachCore creates a new core-private hierarchy bound to this shared
// system and returns it.
func (s *Shared) AttachCore() *Hierarchy {
	h := &Hierarchy{
		cfg:    s.cfg,
		shared: s,
		l1i:    NewCache(s.cfg.L1I),
		l1d:    NewCache(s.cfg.L1D),
		l2:     NewCache(s.cfg.L2),
		tlb:    NewTLB(s.cfg.TLB),
	}
	s.cores = append(s.cores, h)
	return h
}

// Hierarchy is one core's view of the memory system: private L1I/L1D/L2 and
// TLB, plus the shared L3/DRAM. It implements every access path the
// pipeline needs, including the data-oblivious one.
type Hierarchy struct {
	cfg    Config
	shared *Shared
	l1i    *Cache
	l1d    *Cache
	l2     *Cache
	tlb    *TLB

	obs *obs.Recorder // typed event recorder (nil: tracing off)

	oblSeq uint64 // synthetic MSHR keys for non-merging Obl-Ld allocations

	// Speculative-visibility shadow structures (spec.go): active only
	// when a protection scheme selected a SpecMode.
	specMode  SpecMode
	spec      map[uint64]specEntry // line addr -> speculative fill
	specTLB   map[uint64]uint64    // page -> fill seq (SpecShadow only)
	specStamp uint64               // shadow LRU clock

	// OnInvalidate, if set, is called when a line is invalidated in this
	// core's private caches by an external request (coherence). The load
	// queue registers here to detect consistency violations (§V-C1).
	OnInvalidate func(lineAddr uint64)

	// Stats.
	OblLookups uint64
	OblFound   uint64

	// Speculative-shadow stats (spec.go).
	SpecLoads      uint64 // loads routed through the shadow path
	SpecShadowHits uint64 // served by an existing shadow entry
	SpecCommits    uint64 // fills promoted to the committed hierarchy
	SpecDiscards   uint64 // fills discarded by a squash
	SpecEvictions  uint64 // bounded-shadow capacity evictions (SpecShadow)
	SpecTLBWalks   uint64 // shadow-TLB walks (SpecShadow)
}

// NewHierarchy is a convenience for single-core use: it builds a Shared
// system with the given config and attaches one core.
func NewHierarchy(cfg Config) *Hierarchy { return NewShared(cfg).AttachCore() }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1D, L2, TLB expose subcomponents for stats readers and tests.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the private second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L1I returns the private instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// TLB returns the core's data TLB.
func (h *Hierarchy) TLB() *TLB { return h.tlb }

// Shared returns the shared L3/DRAM system.
func (h *Hierarchy) Shared() *Shared { return h.shared }

// incremental latencies: the per-level additional delay such that a hit at
// level k completes at sum of increments 1..k under zero contention,
// matching the Table I "total" latencies.
func (h *Hierarchy) inc(l Level) uint64 {
	switch l {
	case L1:
		return h.cfg.L1D.Latency
	case L2:
		return h.cfg.L2.Latency - h.cfg.L1D.Latency
	case L3:
		return h.cfg.L3.Latency - h.cfg.L2.Latency
	}
	return 0
}

// Probe returns the closest level holding addr without any state change:
// the oracle used by the Perfect predictor and by tests.
func (h *Hierarchy) Probe(addr uint64) Level {
	switch {
	case h.l1d.Lookup(addr):
		return L1
	case h.l2.Lookup(addr):
		return L2
	case h.shared.slice(addr).Lookup(addr):
		return L3
	default:
		return LevelMem
	}
}

// Load performs a normal (filling, LRU-updating) data load issued at time
// now and returns its completion time and serving level.
func (h *Hierarchy) Load(now uint64, addr uint64) AccessResult {
	return h.walk(h.l1d, now, addr, false)
}

// Store performs the cache access for a committed store (write-allocate,
// write-back).
func (h *Hierarchy) Store(now uint64, addr uint64) AccessResult {
	return h.walk(h.l1d, now, addr, true)
}

// FetchAccess performs an instruction fetch for the line containing addr.
func (h *Hierarchy) FetchAccess(now uint64, addr uint64) AccessResult {
	return h.walk(h.l1i, now, addr, false)
}

// walk is the shared normal-path state machine: check/fill each level in
// order, modelling bank and MSHR contention at every level crossed.
//
// With a recorder attached it dispatches to walkTraced (obs.go), an
// instrumented copy of this body: keeping the emits out of this function
// entirely — rather than behind nil checks at each exit — is what keeps
// the untraced L1-hit path at its pre-instrumentation cost (the checks'
// register pressure alone measured ~5% on BenchmarkNormalLoad). The
// traced-run-equivalence test pins the two bodies to identical timing.
func (h *Hierarchy) walk(l1 *Cache, now uint64, addr uint64, write bool) AccessResult {
	if h.obs != nil {
		return h.walkTraced(l1, now, addr, write)
	}
	la := LineAddr(addr)
	slice := h.shared.slice(addr)

	// Presence is determined up front (tag-only); the walk then charges
	// timing for every level it crosses and performs the fills.
	var level Level
	switch {
	case l1.Lookup(addr):
		level = L1
	case h.l2.Lookup(addr):
		level = L2
	case slice.Lookup(addr):
		level = L3
	default:
		level = LevelMem
	}

	t := l1.ReserveBank(now, addr) + h.inc(L1)
	if level == L1 {
		l1.Touch(addr, write)
		return AccessResult{Done: t, Level: L1}
	}
	l1.Touch(addr, write) // records the miss
	start, mdone, merged := l1.AcquireMSHR(t, la, true)
	if merged {
		done := mdone
		if done < t {
			done = t
		}
		return AccessResult{Done: done, Level: level}
	}
	t = start

	t = h.l2.ReserveBank(t, addr) + h.inc(L2)
	var done uint64
	if level == L2 {
		h.l2.Touch(addr, false)
		done = t
	} else {
		h.l2.Touch(addr, false)
		start, mdone, merged := h.l2.AcquireMSHR(t, la, true)
		if merged {
			done = mdone
			if done < t {
				done = t
			}
			h.l2.CommitMSHR(la, done)
			l1.CommitMSHR(la, done)
			l1.Fill(addr, write)
			return AccessResult{Done: done, Level: level}
		}
		t = start
		t = slice.ReserveBank(t, addr) + h.inc(L3)
		if level == L3 {
			slice.Touch(addr, false)
			done = t
		} else {
			slice.Touch(addr, false)
			start, mdone, merged := slice.AcquireMSHR(t, la, true)
			if merged {
				done = mdone
				if done < t {
					done = t
				}
			} else {
				t = start
				done = h.shared.dram.Access(t, addr)
			}
			slice.CommitMSHR(la, done)
			slice.Fill(addr, false)
		}
		h.l2.CommitMSHR(la, done)
		h.l2.Fill(addr, false)
	}
	l1.CommitMSHR(la, done)
	l1.Fill(addr, write)
	return AccessResult{Done: done, Level: level}
}

// OblLoad performs a data-oblivious lookup of levels L1..pred (§V-B,
// §VI-B2). It never modifies cache state; it blocks all banks of each
// level it visits; it allocates a private, non-merged MSHR at each level it
// crosses; and for the L3 it visits *all* slices. Its timing is therefore
// a function of pred and public contention only.
//
// pred is normally a cache level (L1..L3): predictions of LevelMem revert
// to STT delay in the core and never reach the memory system. When the
// optional DO variant for DRAM (§VI-B2 discusses and rejects it as a poor
// complexity/performance trade-off; Config's ablation support architects
// it anyway) is requested with pred == LevelMem, the lookup additionally
// performs a constant worst-case DRAM access: always row-miss timing, no
// row-buffer or scheduler state is consulted or updated.
func (h *Hierarchy) OblLoad(now uint64, addr uint64, pred Level) OblResult {
	if pred < L1 || pred > LevelMem {
		panic("mem: OblLoad prediction must be L1, L2, L3 or Mem")
	}
	h.OblLookups++
	res := OblResult{Found: LevelNone}
	t := now
	// The private MSHRs held while crossing L1->L2 and L2->L3: at most two,
	// so the record lives on the stack.
	var mshrKeys [2]struct {
		c   *Cache
		key uint64
	}
	crossed := 0
	cacheDepth := pred
	if cacheDepth > L3 {
		cacheDepth = L3
	}
	for lvl := L1; lvl <= cacheDepth; lvl++ {
		switch lvl {
		case L1:
			t = h.l1d.ReserveAllBanks(t, h.cfg.OblBlockCycles) + h.inc(L1)
			if res.Start == 0 {
				res.Start = t - h.inc(L1)
			}
			if res.Found == LevelNone && h.l1d.Lookup(addr) {
				res.Found = L1
			}
		case L2:
			t = h.l2.ReserveAllBanks(t, h.cfg.OblBlockCycles) + h.inc(L2)
			if res.Found == LevelNone && h.l2.Lookup(addr) {
				res.Found = L2
			}
		case L3:
			// All slices are looked up; the request completes when the
			// slowest slice responds.
			start := t
			for _, sl := range h.shared.slices {
				if s := sl.ReserveAllBanks(t, h.cfg.OblBlockCycles); s > start {
					start = s
				}
			}
			t = start + h.inc(L3)
			if res.Found == LevelNone && h.shared.slice(addr).Lookup(addr) {
				res.Found = L3
			}
		}
		if res.Found == lvl {
			res.EarlyDone = t
		}
		// Crossing to the next level holds a private MSHR until the whole
		// operation completes.
		if lvl < cacheDepth {
			var c *Cache
			if lvl == L1 {
				c = h.l1d
			} else {
				c = h.l2
			}
			h.oblSeq++
			key := 1<<63 | h.oblSeq // cannot collide with line addresses
			start, _, _ := c.AcquireMSHR(t, key, false)
			t = start
			mshrKeys[crossed].c, mshrKeys[crossed].key = c, key
			crossed++
		}
	}
	if pred == LevelMem {
		// The DO DRAM variant: one constant, row-buffer-blind access.
		t += h.cfg.DRAM.RowMissLat
		if res.Found == LevelNone {
			res.Found = LevelMem // DRAM always holds the data
			res.EarlyDone = t
		}
	}
	res.Done = t
	if res.Found == LevelNone {
		res.EarlyDone = res.Done
	}
	for _, mk := range mshrKeys[:crossed] {
		mk.c.CommitMSHR(mk.key, res.Done)
	}
	if res.Found != LevelNone {
		h.OblFound++
	}
	return res
}

// Flush removes the line containing addr from the entire hierarchy
// (clflush). Architecturally a no-op; dirty data is already current in
// isa.Memory by construction.
func (h *Hierarchy) Flush(addr uint64) {
	h.l1d.Invalidate(addr)
	h.l1i.Invalidate(addr)
	h.l2.Invalidate(addr)
	for _, sl := range h.shared.slices {
		sl.Invalidate(addr)
	}
	h.specFlush(addr)
}

// Translate runs the normal TLB path (LRU update, walk on miss).
func (h *Hierarchy) Translate(now uint64, addr uint64) (done uint64, hit bool) {
	done, hit = h.tlb.Translate(now, addr)
	if !hit && h.obs != nil {
		h.emitTLBMiss(now, addr, done)
	}
	return done, hit
}

// TLBProbe is the DO translation path: L1-TLB tag check only (§V-B).
func (h *Hierarchy) TLBProbe(addr uint64) bool { return h.tlb.Probe(addr) }

// Invalidate removes the line from this core's private caches on behalf of
// an external coherence request and notifies the registered listener
// (typically the core's load queue).
func (h *Hierarchy) Invalidate(lineAddr uint64) {
	h.l1d.Invalidate(lineAddr)
	h.l2.Invalidate(lineAddr)
	h.specInvalidate(lineAddr)
	// The listener is notified even when the line was not present in the
	// private caches: loads may have read the line obliviously without
	// caching it (the missed-invalidation problem, §V-C1 — exactly why
	// validations exist). The listener filters by address.
	if h.OnInvalidate != nil {
		h.OnInvalidate(LineAddr(lineAddr))
	}
}
