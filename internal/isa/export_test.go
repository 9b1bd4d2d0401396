package isa

// Test-only accessors: the package's tests inspect its state through
// these; nothing outside the tests needs them.

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.Read8(addr + uint64(i))
	}
	return b
}

// SetImage replaces the memory contents with a private copy of the given
// page image (as produced by Image). Pages longer than the backing page
// size are truncated; shorter pages are zero-extended.
func (m *Memory) SetImage(img map[uint64][]byte) {
	*m = Memory{}
	for pn, b := range img {
		copy(m.writePage(pn)[:], b)
	}
}
