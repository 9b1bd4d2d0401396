// Package coherence implements the directory-based MESI protocol from the
// paper's baseline memory system (§VI-B1, Table I). A Directory tracks, per
// cache line, which cores hold the line and in what state; loads and stores
// consult it before accessing their private hierarchies, and remote copies
// are downgraded or invalidated as the protocol requires.
//
// Invalidations delivered to a core are what make the paper's §V-C1
// machinery observable: an Obl-Ld that read a line *not* brought into the
// L1 misses the invalidation, which is why loads must be validated when
// they become safe.
package coherence

import (
	"fmt"

	"repro/internal/mem"
)

// State is a MESI line state as seen by the directory.
type State uint8

const (
	// Invalid: no core holds the line.
	Invalid State = iota
	// Shared: one or more cores hold read-only copies.
	Shared
	// Exclusive: exactly one core holds a clean, writable copy.
	Exclusive
	// Modified: exactly one core holds a dirty copy.
	Modified
)

// String returns the MESI letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

type dirEntry struct {
	state   State
	owner   int    // valid when state is Exclusive or Modified
	sharers uint64 // bitmask of cores with copies (Shared state)
}

// SnoopLatency is the extra delay, in cycles, charged to an access that has
// to downgrade or invalidate a remote core's copy (one mesh round trip).
const SnoopLatency = 20

// System is a multi-core memory system: one shared L3/DRAM, one private
// hierarchy per core, and the directory keeping them coherent.
type System struct {
	shared *mem.Shared
	cores  []*Core
	dir    map[uint64]*dirEntry

	// Stats.
	Invalidations uint64
	Downgrades    uint64
}

// Core is one core's coherent port into the system. It exposes the same
// access methods as mem.Hierarchy, adding directory actions; the pipeline
// uses it wherever a single-core run would use the Hierarchy directly.
type Core struct {
	sys *System
	id  int
	h   *mem.Hierarchy
}

// NewSystem builds a system with numCores cores sharing one L3/DRAM.
func NewSystem(cfg mem.Config, numCores int) *System {
	s := &System{
		shared: mem.NewShared(cfg),
		dir:    make(map[uint64]*dirEntry),
	}
	for i := 0; i < numCores; i++ {
		s.cores = append(s.cores, &Core{sys: s, id: i, h: s.shared.AttachCore()})
	}
	return s
}

// Core returns core i's port.
func (s *System) Core(i int) *Core { return s.cores[i] }

// LineState returns the directory state of the line containing addr.
func (s *System) LineState(addr uint64) State {
	e := s.dir[mem.LineAddr(addr)]
	if e == nil {
		return Invalid
	}
	return e.state
}

func (s *System) entry(la uint64) *dirEntry {
	e := s.dir[la]
	if e == nil {
		e = &dirEntry{state: Invalid}
		s.dir[la] = e
	}
	return e
}

// CheckInvariants verifies the MESI single-writer/multi-reader property
// for every tracked line; it returns the first violation found.
func (s *System) CheckInvariants() error {
	for la, e := range s.dir {
		switch e.state {
		case Exclusive, Modified:
			if e.owner < 0 || e.owner >= len(s.cores) {
				return fmt.Errorf("coherence: line %#x in %v with bad owner %d", la, e.state, e.owner)
			}
			if e.sharers != 0 {
				return fmt.Errorf("coherence: line %#x in %v with sharers %#x", la, e.state, e.sharers)
			}
		case Shared:
			if e.sharers == 0 {
				return fmt.Errorf("coherence: line %#x Shared with no sharers", la)
			}
		}
	}
	return nil
}

// Hierarchy returns the core's private hierarchy (for stats and the
// OnInvalidate hook).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.h }

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// acquireRead obtains read permission for the line: a GetS. Returns extra
// snoop latency.
func (c *Core) acquireRead(la uint64) uint64 {
	e := c.sys.entry(la)
	var extra uint64
	switch e.state {
	case Invalid:
		e.state = Exclusive
		e.owner = c.id
	case Exclusive, Modified:
		if e.owner != c.id {
			// Downgrade the owner to Shared (implicit writeback for M).
			c.sys.Downgrades++
			extra = SnoopLatency
			e.sharers = 1<<uint(e.owner) | 1<<uint(c.id)
			e.state = Shared
			e.owner = -1
		}
	case Shared:
		e.sharers |= 1 << uint(c.id)
	}
	return extra
}

// acquireWrite obtains write permission: a GetM. All remote copies are
// invalidated (delivering the invalidation to each remote hierarchy, which
// notifies its core's load queue). Returns extra snoop latency.
func (c *Core) acquireWrite(la uint64) uint64 {
	e := c.sys.entry(la)
	var extra uint64
	inval := func(core int) {
		if core == c.id {
			return
		}
		c.sys.Invalidations++
		extra = SnoopLatency
		c.sys.cores[core].h.Invalidate(la)
	}
	switch e.state {
	case Exclusive, Modified:
		if e.owner != c.id {
			inval(e.owner)
		}
	case Shared:
		for core := range c.sys.cores {
			if e.sharers&(1<<uint(core)) != 0 {
				inval(core)
			}
		}
	}
	e.state = Modified
	e.owner = c.id
	e.sharers = 0
	return extra
}

// Load performs a coherent, filling load.
func (c *Core) Load(now uint64, addr uint64) mem.AccessResult {
	extra := c.acquireRead(mem.LineAddr(addr))
	r := c.h.Load(now, addr)
	r.Done += extra
	return r
}

// Store performs a coherent committed store (write-allocate).
func (c *Core) Store(now uint64, addr uint64) mem.AccessResult {
	extra := c.acquireWrite(mem.LineAddr(addr))
	r := c.h.Store(now, addr)
	r.Done += extra
	return r
}

// OblLoad performs the data-oblivious lookup. It deliberately does NOT
// consult or update the directory: the Obl-Ld takes no coherence
// permissions and leaves no trace — which is exactly why a later
// invalidation of the line can be missed and a validation is required
// (§V-C1).
func (c *Core) OblLoad(now uint64, addr uint64, pred mem.Level) mem.OblResult {
	return c.h.OblLoad(now, addr, pred)
}

// SetSpecMode enables the private hierarchy's speculative-visibility
// shadow (mem/spec.go).
func (c *Core) SetSpecMode(m mem.SpecMode) { c.h.SetSpecMode(m) }

// SpecTranslate delegates to the private hierarchy's speculative
// translation path.
func (c *Core) SpecTranslate(now uint64, addr uint64, seq uint64) (uint64, bool) {
	return c.h.SpecTranslate(now, addr, seq)
}

// SpecLoad performs a speculative shadow-filling load. Like OblLoad it
// deliberately takes NO directory action: a speculative fill must not be
// observable by other cores (no downgrade of a remote owner, no sharer
// entry a remote flush+reload probe could time). Coherence permissions
// are acquired when the load commits (CommitSpec).
func (c *Core) SpecLoad(now uint64, addr uint64, seq uint64) mem.AccessResult {
	return c.h.SpecLoad(now, addr, seq)
}

// CommitSpec promotes a retiring speculative fill: the line becomes a
// coherent committed copy, so read permission is acquired now.
func (c *Core) CommitSpec(addr uint64, seq uint64) {
	c.acquireRead(mem.LineAddr(addr))
	c.h.CommitSpec(addr, seq)
}

// SquashSpec discards this core's speculative fills from seq onward.
func (c *Core) SquashSpec(from uint64) { c.h.SquashSpec(from) }

// Probe, Flush, Translate, TLBProbe, FetchAccess delegate to the private
// hierarchy.
func (c *Core) Probe(addr uint64) mem.Level { return c.h.Probe(addr) }

// Flush evicts the line from this core's hierarchy and releases its
// directory permissions.
func (c *Core) Flush(addr uint64) {
	la := mem.LineAddr(addr)
	c.h.Flush(addr)
	if e := c.sys.dir[la]; e != nil {
		switch e.state {
		case Exclusive, Modified:
			if e.owner == c.id {
				e.state = Invalid
				e.owner = -1
			}
		case Shared:
			e.sharers &^= 1 << uint(c.id)
			if e.sharers == 0 {
				e.state = Invalid
			}
		}
	}
}

// Translate delegates to the private TLB's normal path.
func (c *Core) Translate(now uint64, addr uint64) (uint64, bool) {
	return c.h.Translate(now, addr)
}

// TLBProbe delegates to the private TLB's tag-only path.
func (c *Core) TLBProbe(addr uint64) bool { return c.h.TLBProbe(addr) }

// FetchAccess delegates to the instruction-fetch path (instruction lines
// are read-only here; no directory action).
func (c *Core) FetchAccess(now uint64, addr uint64) mem.AccessResult {
	return c.h.FetchAccess(now, addr)
}
