package mem

// Cache is a single set-associative, banked, write-back/write-allocate
// cache with a bounded MSHR file. It exposes three access paths:
//
//   - Lookup: tag check only, no state change (the DO variant's probe).
//   - Touch / Fill: the normal path — LRU update, allocation, eviction.
//   - Bank and MSHR reservation helpers used by Hierarchy for timing.
type Cache struct {
	cfg      CacheConfig
	sets     [][]LineState
	setMask  uint64
	stamp    uint64
	bankBusy []uint64

	// mshr holds the outstanding misses: the key each was registered
	// under (a line address, or an Obl-Ld's synthetic key) and the cycle
	// its data returns. A slice, not a map: the file has cfg.MSHRs entries
	// (plus the few acquired but not yet committed) and every miss scans
	// all of it. Entries are pruned lazily.
	mshr []mshrEntry

	// Stats.
	Hits, Misses    uint64
	BankWaitCycles  uint64
	MSHRWaitCycles  uint64
	Evictions       uint64
	DirtyWritebacks uint64
	InvalidationsIn uint64

	// lines is every tag-array entry, sets × ways row-major: sets[i] is
	// lines[i*Ways:(i+1)*Ways]. The access paths index sets; snapshot,
	// restore and reset work on the whole array (state.go). An invalid
	// entry is always the zero LineState: only Fill makes one valid, and
	// Invalidate and reset zero it again.
	lines []LineState
	// valid counts the valid entries of lines, so a snapshot is sized in
	// one scan and a restore into an all-zero array (valid == 0) writes
	// only the entries it stores.
	valid int
}

type mshrEntry struct{ key, done uint64 }

// NewCache returns a cache with the given geometry. Sets = Size / (Line *
// Ways); the set count must be a power of two.
func NewCache(cfg CacheConfig) *Cache {
	numSets := cfg.SizeBytes / (LineBytes * cfg.Ways)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("mem: cache set count must be a positive power of two")
	}
	sets := make([][]LineState, numSets)
	lines := make([]LineState, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{
		cfg:      cfg,
		lines:    lines,
		sets:     sets,
		setMask:  uint64(numSets - 1),
		bankBusy: make([]uint64, cfg.Banks),
		mshr:     make([]mshrEntry, 0, cfg.MSHRs),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) setIdx(lineAddr uint64) uint64 {
	return (lineAddr / LineBytes) & c.setMask
}

// Lookup reports whether the line containing addr is present, without
// modifying any cache state (LRU included). This is the tag-only probe a
// DO variant performs: by construction it cannot perturb state another
// access could observe.
func (c *Cache) Lookup(addr uint64) bool {
	la := LineAddr(addr)
	for i := range c.sets[c.setIdx(la)] {
		l := &c.sets[c.setIdx(la)][i]
		if l.Valid && l.Tag == la {
			return true
		}
	}
	return false
}

// Touch performs a normal-path tag access: on hit it updates LRU (and the
// dirty bit if write) and returns true. On miss it returns false and
// changes nothing; the caller decides whether to Fill.
func (c *Cache) Touch(addr uint64, write bool) bool {
	la := LineAddr(addr)
	set := c.sets[c.setIdx(la)]
	for i := range set {
		if set[i].Valid && set[i].Tag == la {
			c.stamp++
			set[i].LRU = c.stamp
			if write {
				set[i].Dirty = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill allocates the line containing addr, evicting the LRU way if needed.
// It returns the evicted line's address and whether it was dirty (valid
// only if evicted is true). The filled line is clean unless write is set.
func (c *Cache) Fill(addr uint64, write bool) (evictedAddr uint64, evictedDirty, evicted bool) {
	la := LineAddr(addr)
	set := c.sets[c.setIdx(la)]
	victim := 0
	for i := range set {
		if set[i].Valid && set[i].Tag == la {
			// Already present (e.g. racing fills); just touch.
			c.stamp++
			set[i].LRU = c.stamp
			if write {
				set[i].Dirty = true
			}
			return 0, false, false
		}
		if !set[i].Valid {
			victim = i
		} else if set[victim].Valid && set[i].LRU < set[victim].LRU {
			victim = i
		}
	}
	v := &set[victim]
	if !v.Valid {
		c.valid++
	} else {
		evicted = true
		evictedAddr = v.Tag
		evictedDirty = v.Dirty
		c.Evictions++
		if v.Dirty {
			c.DirtyWritebacks++
		}
	}
	c.stamp++
	*v = LineState{Valid: true, Dirty: write, Tag: la, LRU: c.stamp}
	return evictedAddr, evictedDirty, evicted
}

// Invalidate removes the line containing addr if present, returning
// whether it was present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := LineAddr(addr)
	set := c.sets[c.setIdx(la)]
	for i := range set {
		if set[i].Valid && set[i].Tag == la {
			dirty = set[i].Dirty
			set[i] = LineState{}
			c.valid--
			c.InvalidationsIn++
			return true, dirty
		}
	}
	return false, false
}

// bank returns the bank index serving the line containing addr.
func (c *Cache) bank(addr uint64) int {
	return int(LineAddr(addr)/LineBytes) % c.cfg.Banks
}

// ReserveBank models a normal access occupying its address's bank for one
// cycle: the access starts when the bank frees, and the returned start time
// already includes any wait. Stats record contention.
func (c *Cache) ReserveBank(now uint64, addr uint64) (start uint64) {
	b := c.bank(addr)
	start = now
	if c.bankBusy[b] > start {
		c.BankWaitCycles += c.bankBusy[b] - start
		start = c.bankBusy[b]
	}
	c.bankBusy[b] = start + 1
	return start
}

// ReserveAllBanks models a DO lookup: it waits for every bank to free and
// then blocks all of them for dur cycles (§VI-B2 "access all cache banks").
// The wait and hold depend only on prior public contention, never on the
// address.
func (c *Cache) ReserveAllBanks(now, dur uint64) (start uint64) {
	start = now
	for _, busy := range c.bankBusy {
		if busy > start {
			start = busy
		}
	}
	if start > now {
		c.BankWaitCycles += start - now
	}
	for i := range c.bankBusy {
		c.bankBusy[i] = start + dur
	}
	return start
}

// pruneMSHR drops entries whose data has returned by now.
func (c *Cache) pruneMSHR(now uint64) {
	live := c.mshr[:0]
	for _, e := range c.mshr {
		if e.done > now {
			live = append(live, e)
		}
	}
	c.mshr = live
}

// AcquireMSHR allocates a miss-status register at time now for the line
// containing addr, to be held until the returned start time plus the
// caller-determined completion. If an outstanding miss for the same line
// exists and merge is true, the request piggybacks: it returns that miss's
// completion time in mergedDone. If the file is full, the request waits for
// the earliest release (counted in MSHRWaitCycles).
//
// DO variants call this with merge=false and a synthetic per-request key so
// that MSHR occupancy depends only on the fact the Obl-Ld is executing
// (§VI-B2 "every Obl-Ld must allocate an MSHR; it cannot share").
func (c *Cache) AcquireMSHR(now uint64, key uint64, merge bool) (start uint64, mergedDone uint64, merged bool) {
	c.pruneMSHR(now)
	if merge {
		for _, e := range c.mshr {
			if e.key == key {
				return now, e.done, true
			}
		}
	}
	start = now
	for len(c.mshr) >= c.cfg.MSHRs {
		// Wait for the earliest outstanding miss to complete.
		min := uint64(0)
		first := true
		for _, e := range c.mshr {
			if first || e.done < min {
				min = e.done
				first = false
			}
		}
		if min > start {
			c.MSHRWaitCycles += min - start
			start = min
		}
		c.pruneMSHR(start)
	}
	return start, 0, false
}

// CommitMSHR records the completion time of the miss registered under
// key, replacing the time of a live entry with the same key.
//
// Not inlined: in Hierarchy.OblLoad the inlined scan-and-append grows the
// frame of every Obl-Ld, including the L1-only ones that commit no MSHR
// (measured: 21 ns against 18 ns per L1 Obl-Ld).
//
//go:noinline
func (c *Cache) CommitMSHR(key uint64, done uint64) {
	for i := range c.mshr {
		if c.mshr[i].key == key {
			c.mshr[i].done = done
			return
		}
	}
	c.mshr = append(c.mshr, mshrEntry{key, done})
}

// OutstandingMisses returns the current number of live MSHR entries as of
// time now (for tests).
func (c *Cache) OutstandingMisses(now uint64) int {
	c.pruneMSHR(now)
	return len(c.mshr)
}

// Contents returns the number of valid lines (for tests).
func (c *Cache) Contents() int {
	n := 0
	for _, set := range c.sets {
		for _, l := range set {
			if l.Valid {
				n++
			}
		}
	}
	return n
}
