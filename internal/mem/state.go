package mem

import "fmt"

// This file is the warm-state layer used by functional-warmup checkpoints
// (internal/arch): a serializable snapshot of every piece of memory-system
// state that survives a warmup/measurement handoff, plus timing-free
// "warm" access paths that update exactly that state and nothing else.
//
// The split matters for soundness. Persistent state — tags, replacement
// stamps, dirty bits, TLB entries, DRAM row buffers, and the stat counters
// derived from them — is what warmup exists to establish, and it is fully
// captured here. Transient timing state — bank busy times, MSHR files, the
// DRAM scheduler queue — is deliberately excluded: the warm paths never
// touch it, so at the warmup boundary it is empty by construction, and a
// restored machine is indistinguishable from one that warmed up in place.

// LineState is one tag-array entry, in a Cache and in its CacheState
// alike. Caches model tags and replacement state only; data lives in
// isa.Memory (see the package comment).
type LineState struct {
	Valid bool
	Dirty bool
	Tag   uint64
	LRU   uint64 // last-touch stamp; larger = more recent
}

// CacheState is the persistent state of a Cache: its valid tag-array
// entries, the LRU stamp, and the stat counters.
//
// Only valid entries are stored: Lines[i] sits at position Index[i] of
// the tag array (sets × ways, row-major), positions strictly ascending,
// and every other entry is invalid. That is the whole state, because an
// invalid entry of a live cache is always the zero LineState and no path
// reads an invalid entry's tag, dirty bit or LRU stamp — every lookup,
// touch, hit check and invalidation gates on Valid, and Fill picks an
// invalid way without comparing stamps. After functional warmup a few
// percent of the lines are valid, so a checkpoint holds only the warm
// state warmup made.
type CacheState struct {
	Lines []LineState
	Index []uint32
	Stamp uint64

	Hits, Misses    uint64
	BankWaitCycles  uint64
	MSHRWaitCycles  uint64
	Evictions       uint64
	DirtyWritebacks uint64
	InvalidationsIn uint64
}

// State snapshots the cache's persistent state.
func (c *Cache) State() CacheState {
	s := CacheState{
		Stamp:           c.stamp,
		Hits:            c.Hits,
		Misses:          c.Misses,
		BankWaitCycles:  c.BankWaitCycles,
		MSHRWaitCycles:  c.MSHRWaitCycles,
		Evictions:       c.Evictions,
		DirtyWritebacks: c.DirtyWritebacks,
		InvalidationsIn: c.InvalidationsIn,
	}
	if c.valid == 0 {
		return s
	}
	s.Lines = make([]LineState, 0, c.valid)
	s.Index = make([]uint32, 0, c.valid)
	for i, l := range c.lines {
		if l.Valid {
			s.Lines = append(s.Lines, l)
			s.Index = append(s.Index, uint32(i))
		}
	}
	return s
}

// check reports whether s is a well-formed snapshot of a cache with n
// tag-array entries.
func (s *CacheState) check(n int) error {
	if len(s.Index) != len(s.Lines) {
		return fmt.Errorf("mem: cache state has %d lines but %d positions", len(s.Lines), len(s.Index))
	}
	next := 0 // the lowest position the next line may take
	for i, at := range s.Index {
		if int(at) < next || int(at) >= n {
			return fmt.Errorf("mem: cache state line %d at position %d: positions must ascend strictly below %d", i, at, n)
		}
		if !s.Lines[i].Valid {
			return fmt.Errorf("mem: cache state line %d at position %d is not valid", i, at)
		}
		next = int(at) + 1
	}
	return nil
}

// SetState restores a snapshot taken from a cache of identical geometry,
// leaving the cache exactly as the snapshotted one was. Transient timing
// state (bank reservations, MSHRs) is reset. A cache with no valid line
// — new or reset, the pooled case — is all zero already, so the restore
// writes only the stored lines; otherwise it clears the array first.
func (c *Cache) SetState(s CacheState) error {
	if err := s.check(len(c.lines)); err != nil {
		return err
	}
	if c.valid > 0 {
		clear(c.lines)
	}
	for i, at := range s.Index {
		c.lines[at] = s.Lines[i]
	}
	c.valid = len(s.Lines)
	c.stamp = s.Stamp
	c.Hits, c.Misses = s.Hits, s.Misses
	c.BankWaitCycles, c.MSHRWaitCycles = s.BankWaitCycles, s.MSHRWaitCycles
	c.Evictions, c.DirtyWritebacks = s.Evictions, s.DirtyWritebacks
	c.InvalidationsIn = s.InvalidationsIn
	clear(c.bankBusy)
	c.mshr = c.mshr[:0]
	return nil
}

// reset returns the cache to the state NewCache built it in, keeping its
// arrays.
func (c *Cache) reset() {
	clear(c.lines)
	clear(c.bankBusy)
	*c = Cache{cfg: c.cfg, sets: c.sets, setMask: c.setMask, bankBusy: c.bankBusy, mshr: c.mshr[:0], lines: c.lines}
}

// TLBLevelState is one fully-associative TLB level's entries.
type TLBLevelState struct {
	Pages []uint64
	Valid []bool
	LRUAt []uint64
	Stamp uint64
}

func (l *tlbLevel) state() TLBLevelState {
	return TLBLevelState{
		Pages: append([]uint64(nil), l.pages...),
		Valid: append([]bool(nil), l.valid...),
		LRUAt: append([]uint64(nil), l.lruAt...),
		Stamp: l.stamp,
	}
}

func (l *tlbLevel) setState(s TLBLevelState) error {
	if n := len(l.pages); len(s.Pages) != n || len(s.Valid) != n || len(s.LRUAt) != n {
		return fmt.Errorf("mem: TLB level state has %d/%d/%d pages/valid bits/stamps, geometry wants %d",
			len(s.Pages), len(s.Valid), len(s.LRUAt), n)
	}
	copy(l.pages, s.Pages)
	copy(l.valid, s.Valid)
	copy(l.lruAt, s.LRUAt)
	l.stamp = s.Stamp
	return nil
}

func (l *tlbLevel) reset() {
	clear(l.pages)
	clear(l.valid)
	clear(l.lruAt)
	l.stamp = 0
}

// TLBState is the persistent state of a two-level TLB.
type TLBState struct {
	L1 TLBLevelState
	L2 *TLBLevelState // nil when the L2 TLB is disabled

	Hits, Misses uint64
	L2Hits       uint64
	Walks        uint64
}

// State snapshots the TLB.
func (t *TLB) State() TLBState {
	s := TLBState{L1: t.l1.state(), Hits: t.Hits, Misses: t.Misses, L2Hits: t.L2Hits, Walks: t.Walks}
	if t.l2 != nil {
		l2 := t.l2.state()
		s.L2 = &l2
	}
	return s
}

// SetState restores a TLB snapshot of identical geometry.
func (t *TLB) SetState(s TLBState) error {
	if err := t.l1.setState(s.L1); err != nil {
		return err
	}
	if (t.l2 == nil) != (s.L2 == nil) {
		return fmt.Errorf("mem: TLB state L2 presence mismatch")
	}
	if t.l2 != nil {
		if err := t.l2.setState(*s.L2); err != nil {
			return err
		}
	}
	t.Hits, t.Misses, t.L2Hits, t.Walks = s.Hits, s.Misses, s.L2Hits, s.Walks
	return nil
}

// reset returns the TLB to the state NewTLB built it in.
func (t *TLB) reset() {
	t.l1.reset()
	if t.l2 != nil {
		t.l2.reset()
	}
	*t = TLB{cfg: t.cfg, l1: t.l1, l2: t.l2}
}

// DRAMState is the persistent state of the memory controller: the open
// row per bank and the stat counters. Scheduler state (bank busy times,
// the request queue) is transient and excluded.
type DRAMState struct {
	OpenRow  []uint64
	RowValid []bool

	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
	QueueWait uint64
}

// State snapshots the controller.
func (d *DRAM) State() DRAMState {
	return DRAMState{
		OpenRow:   append([]uint64(nil), d.openRow...),
		RowValid:  append([]bool(nil), d.rowValid...),
		Accesses:  d.Accesses,
		RowHits:   d.RowHits,
		RowMisses: d.RowMisses,
		QueueWait: d.QueueWait,
	}
}

// SetState restores a controller snapshot of identical geometry and
// resets the transient scheduler state.
func (d *DRAM) SetState(s DRAMState) error {
	if n := len(d.openRow); len(s.OpenRow) != n || len(s.RowValid) != n {
		return fmt.Errorf("mem: DRAM state has %d/%d open rows/valid bits, geometry wants %d banks",
			len(s.OpenRow), len(s.RowValid), n)
	}
	copy(d.openRow, s.OpenRow)
	copy(d.rowValid, s.RowValid)
	d.Accesses, d.RowHits, d.RowMisses, d.QueueWait = s.Accesses, s.RowHits, s.RowMisses, s.QueueWait
	clear(d.bankBusy)
	d.queue = d.queue[:0]
	return nil
}

// reset returns the controller to the state NewDRAM built it in.
func (d *DRAM) reset() {
	clear(d.openRow)
	clear(d.rowValid)
	clear(d.bankBusy)
	*d = DRAM{cfg: d.cfg, openRow: d.openRow, rowValid: d.rowValid, bankBusy: d.bankBusy, queue: d.queue[:0]}
}

// warmAccess updates the controller's persistent row-buffer state (and the
// derived counters) for one warm access, without consulting or advancing
// the scheduler.
func (d *DRAM) warmAccess(addr uint64) {
	d.Accesses++
	b := d.bank(addr)
	row := d.row(addr)
	if d.rowValid[b] && d.openRow[b] == row {
		d.RowHits++
	} else {
		d.RowMisses++
	}
	d.openRow[b] = row
	d.rowValid[b] = true
}

// HierState is the serializable warm state of one core's whole memory
// system: the private caches and TLB plus the shared L3 slices and DRAM
// controller. It is captured and restored as a unit by warmup
// checkpoints; restoring it into a multi-core Shared system would
// overwrite state other cores contributed to, so it is a single-core
// facility (exactly the harness's use).
type HierState struct {
	L1I, L1D, L2 CacheState
	TLB          TLBState
	L3           []CacheState
	DRAM         DRAMState
	OblLookups   uint64
	OblFound     uint64
}

// State snapshots the hierarchy (private and shared levels).
func (h *Hierarchy) State() HierState {
	s := HierState{
		L1I:        h.l1i.State(),
		L1D:        h.l1d.State(),
		L2:         h.l2.State(),
		TLB:        h.tlb.State(),
		DRAM:       h.shared.dram.State(),
		OblLookups: h.OblLookups,
		OblFound:   h.OblFound,
	}
	for _, sl := range h.shared.slices {
		s.L3 = append(s.L3, sl.State())
	}
	return s
}

// SetState restores a hierarchy snapshot into a system of identical
// configuration.
func (h *Hierarchy) SetState(s HierState) error {
	if len(s.L3) != len(h.shared.slices) {
		return fmt.Errorf("mem: hierarchy state has %d L3 slices, geometry wants %d",
			len(s.L3), len(h.shared.slices))
	}
	if err := h.l1i.SetState(s.L1I); err != nil {
		return err
	}
	if err := h.l1d.SetState(s.L1D); err != nil {
		return err
	}
	if err := h.l2.SetState(s.L2); err != nil {
		return err
	}
	if err := h.tlb.SetState(s.TLB); err != nil {
		return err
	}
	for i, sl := range h.shared.slices {
		if err := sl.SetState(s.L3[i]); err != nil {
			return err
		}
	}
	if err := h.shared.dram.SetState(s.DRAM); err != nil {
		return err
	}
	h.OblLookups, h.OblFound = s.OblLookups, s.OblFound
	// Shadow fills are transient speculation; a restored machine starts
	// with an empty shadow, like one that warmed up in place.
	h.specReset()
	return nil
}

// Reset returns the hierarchy — private and shared levels — to the state
// NewHierarchy built it in. It keeps the cache, TLB and DRAM arrays,
// cleared in place (tags, stamps, bank/MSHR/DRAM-queue timing state), and
// drops everything else: the hierarchy's counters, the shadow structures
// and their mode, the recorder and the invalidation listener. It is what
// lets one hierarchy serve machine after machine (core's pool) with
// nothing of the previous run visible to the next, and with no reference
// left to the previous machine's pipeline. Like SetState it is a
// single-core facility: it clears the shared L3 and DRAM whoever else is
// attached.
func (h *Hierarchy) Reset() {
	h.l1i.reset()
	h.l1d.reset()
	h.l2.reset()
	h.tlb.reset()
	for _, sl := range h.shared.slices {
		sl.reset()
	}
	h.shared.dram.reset()
	*h = Hierarchy{cfg: h.cfg, shared: h.shared, l1i: h.l1i, l1d: h.l1d, l2: h.l2, tlb: h.tlb}
}

// WarmLoad, WarmStore and WarmFetch are the functional-warmup access
// paths: they perform the same presence/LRU/fill/stat updates as the
// detailed walk (hierarchy.go) but charge no timing — banks, MSHRs and
// the DRAM scheduler are untouched, so transient state stays empty across
// the warmup boundary.
func (h *Hierarchy) WarmLoad(addr uint64) { h.warmWalk(h.l1d, addr, false) }

// WarmStore warms the write path (write-allocate: the L1 line is dirtied).
func (h *Hierarchy) WarmStore(addr uint64) { h.warmWalk(h.l1d, addr, true) }

// WarmFetch warms the instruction cache for the line containing addr.
func (h *Hierarchy) WarmFetch(addr uint64) { h.warmWalk(h.l1i, addr, false) }

// WarmTranslate warms the TLB for addr's page (normal-path replacement
// and walk counters; the walk's latency is discarded).
func (h *Hierarchy) WarmTranslate(addr uint64) { h.tlb.Translate(0, addr) }

// warmWalk mirrors the detailed walk's presence transitions: touch each
// level until a hit, fill the missed levels on the way back, and open the
// DRAM row on a full miss.
func (h *Hierarchy) warmWalk(l1 *Cache, addr uint64, write bool) {
	if l1.Touch(addr, write) {
		return
	}
	if !h.l2.Touch(addr, false) {
		slice := h.shared.slice(addr)
		if !slice.Touch(addr, false) {
			h.shared.dram.warmAccess(addr)
			slice.Fill(addr, false)
		}
		h.l2.Fill(addr, false)
	}
	l1.Fill(addr, write)
}
