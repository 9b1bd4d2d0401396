// Package mem models the timing of the memory subsystem from the paper's
// §VI-B1: per-core private L1I/L1D and L2 caches, a shared sliced L3, a
// DRAM memory controller with row-buffer locality, and an L1 TLB. Caches
// are banked, write-back/write-allocate, LRU, with a bounded number of
// MSHRs; concurrent requests contend for banks, MSHRs and DRAM banks.
//
// The model is *timing and presence only*: caches track tags, not data.
// Architectural data lives in isa.Memory, which the pipeline reads and
// writes directly; this package answers "when does the access complete and
// which level served it". This split keeps every configuration's
// architectural behaviour identical by construction — exactly the property
// a speculative-execution defense must have.
//
// The data-oblivious lookup path required by SDO (§VI-B2) is OblLoad: a
// tag-only probe of levels L1..p whose resource usage (banks blocked, MSHRs
// held, response timing) is a function of the predicted level p alone,
// never of the address.
package mem

import "fmt"

// Level identifies a level of the memory hierarchy. It is also the domain
// of the SDO location predictor: a prediction is a Level.
type Level uint8

const (
	// LevelNone means "not present anywhere / no result".
	LevelNone Level = iota
	// L1 is the private first-level data cache.
	L1
	// L2 is the private second-level cache.
	L2
	// L3 is the shared, sliced last-level cache.
	L3
	// LevelMem is DRAM.
	LevelMem
)

// numCacheLevels is the number of cache levels (excluding DRAM).
const numCacheLevels = 3

// String returns a short name for the level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case LevelMem:
		return "Mem"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// LineBytes is the cache line size used throughout (Table I: 64B).
const LineBytes = 64

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int
	Ways      int
	Latency   uint64 // total load-to-use latency when hitting this level
	Banks     int
	MSHRs     int
}

// DRAMConfig parameterises the memory controller model.
type DRAMConfig struct {
	Banks        int
	RowBytes     int    // row-buffer size
	RowHitLat    uint64 // extra cycles beyond L3 latency on a row-buffer hit
	RowMissLat   uint64 // extra cycles on a row-buffer miss (precharge+activate)
	BurstCycles  uint64 // bank occupancy per access
	QueueEntries int    // controller queue; full queue stalls new requests
}

// TLBConfig parameterises the two-level data TLB. An L1-TLB miss that
// hits the L2 TLB costs L2Latency; a full miss costs WalkCycles. Obl-Lds
// consult only the L1 TLB (§V-B: even the L2 TLB lookup would be an
// address-dependent resource use observable by an SMT sibling).
type TLBConfig struct {
	Entries    int // L1 TLB entries (fully associative)
	L2Entries  int // L2 TLB entries (fully associative; 0 disables)
	PageBits   int
	L2Latency  uint64 // added cycles for an L1-miss/L2-hit translation
	WalkCycles uint64 // page-table walk latency on a full miss
}

// Config collects the whole hierarchy's parameters.
type Config struct {
	L1I, L1D, L2, L3 CacheConfig
	L3Slices         int // the shared L3 is split into this many slices
	DRAM             DRAMConfig
	TLB              TLBConfig
	// OblBlockCycles is how long an Obl-Ld blocks *all* banks of a cache it
	// looks up (the §VI-B2 "all succeeding requests are blocked" rule).
	OblBlockCycles uint64
}

// DefaultConfig returns the paper's Table I parameters (latencies in core
// cycles; DRAM ≈ 50 ns past the L2 at 2 GHz).
func DefaultConfig() Config {
	return Config{
		L1I:      CacheConfig{SizeBytes: 32 << 10, Ways: 4, Latency: 2, Banks: 4, MSHRs: 16},
		L1D:      CacheConfig{SizeBytes: 32 << 10, Ways: 8, Latency: 2, Banks: 4, MSHRs: 16},
		L2:       CacheConfig{SizeBytes: 256 << 10, Ways: 8, Latency: 12, Banks: 8, MSHRs: 16},
		L3:       CacheConfig{SizeBytes: 2 << 20, Ways: 8, Latency: 40, Banks: 8, MSHRs: 16},
		L3Slices: 1,
		DRAM: DRAMConfig{
			Banks:        8,
			RowBytes:     8 << 10,
			RowHitLat:    60,
			RowMissLat:   100,
			BurstCycles:  4,
			QueueEntries: 32,
		},
		// 64 entries x 64KB pages cover 4MB: SPEC-class L1-TLB miss rates
		// stay low (§V-B relies on this), as with large pages on real HW.
		// A 512-entry L2 TLB catches most of the remainder at 8 cycles.
		TLB:            TLBConfig{Entries: 64, L2Entries: 512, PageBits: 16, L2Latency: 8, WalkCycles: 30},
		OblBlockCycles: 1,
	}
}

// LatencyOf returns the load-to-use latency of hitting the given level
// (for LevelMem the DRAM row-miss worst case past the L3).
func (c *Config) LatencyOf(l Level) uint64 {
	switch l {
	case L1:
		return c.L1D.Latency
	case L2:
		return c.L2.Latency
	case L3:
		return c.L3.Latency
	case LevelMem:
		return c.L3.Latency + c.DRAM.RowMissLat
	}
	return 0
}
