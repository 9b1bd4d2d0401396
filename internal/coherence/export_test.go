package coherence

import "repro/internal/mem"

// Test-only accessors: the package's tests inspect its state through
// these; nothing outside the tests needs them.

// Sharers returns the bitmask of cores holding the line.
func (s *System) Sharers(addr uint64) uint64 {
	e := s.dir[mem.LineAddr(addr)]
	if e == nil {
		return 0
	}
	if e.state == Exclusive || e.state == Modified {
		return 1 << uint(e.owner)
	}
	return e.sharers
}
