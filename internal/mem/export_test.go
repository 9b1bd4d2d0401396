package mem

// Test-only accessors: the package's tests inspect its state through
// these; nothing outside the tests needs them.

// OutstandingMisses returns the current number of live MSHR entries as of
// time now.
func (c *Cache) OutstandingMisses(now uint64) int {
	c.pruneMSHR(now)
	return len(c.mshr)
}

// Contents returns the number of valid lines.
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

// SpecModeActive returns the hierarchy's current speculative mode.
func (h *Hierarchy) SpecModeActive() SpecMode { return h.specMode }

// SpecContents returns the line addresses currently held by the shadow.
func (h *Hierarchy) SpecContents() []uint64 {
	out := make([]uint64, 0, len(h.spec))
	for la := range h.spec {
		out = append(out, la)
	}
	return out
}
