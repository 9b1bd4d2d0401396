// Package simpoint implements SimPoint-style sampled simulation over the
// functional emulator (internal/arch): instead of paying cycle-level cost
// for a workload's whole measurement window, the window is split into
// fixed-size instruction intervals, each interval is summarised by its
// basic-block vector (BBV — how many instructions it spent in each static
// basic block), the intervals are clustered by BBV similarity, and only
// one representative interval per cluster is simulated in detailed mode.
// Whole-window statistics are then reconstructed as the weighted
// combination of the representatives' per-instruction rates.
//
// The method is sound for the same reason the paper's own SPEC SimPoint
// fragments are: program phases with the same code-execution profile have
// the same microarchitectural behaviour, so a phase's representative
// stands in for every interval of that phase. Everything here is
// deterministic — profiling is the functional emulator, clustering is
// seeded k-means — so the same (program, window, Config) always yields
// the same plan, which is what lets the simulation service cache sampled
// results content-addressed (DESIGN.md "Sampled simulation").
package simpoint

// Default sampling parameters (see Config).
const (
	defaultIntervalInstrs = 5_000
	defaultMaxK           = 8
	DefaultSeed           = 1
	// projDim is the dimension BBVs are randomly projected to before
	// clustering (the SimPoint trick that makes k-means cheap regardless
	// of how many static blocks the program has).
	projDim = 16
	// memDims are extra feature dimensions appended to the projected BBV:
	// load density, store density, distinct-cache-line touch rate and
	// new-cache-line touch rate per interval. Pure code vectors cannot
	// separate phases that execute identical blocks over different data
	// (streaming vs. re-use), which on this suite is the dominant source
	// of IPC variation the clustering must see.
	memDims = 4
	// vecDim is the full feature-vector dimension.
	vecDim = projDim + memDims
)

// Config holds the sampling parameters. The zero value selects the
// defaults.
type Config struct {
	// IntervalInstrs is the interval length in committed instructions
	// (default 5000). The measurement window is split into
	// ceil(window/IntervalInstrs) intervals; the last one may be short.
	IntervalInstrs uint64
	// MaxK caps the number of clusters (and therefore representative
	// intervals) the BIC search may choose (default 8).
	MaxK int
	// Seed seeds the BBV random projection and the k-means
	// initialisation (default 1). Same seed, same plan.
	Seed uint64
}

// WithDefaults fills zero fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.IntervalInstrs == 0 {
		c.IntervalInstrs = defaultIntervalInstrs
	}
	if c.MaxK <= 0 {
		c.MaxK = defaultMaxK
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// splitmix64 is the deterministic hash/PRNG step used for the random
// projection and the k-means seeding (no math/rand: reproducibility
// across Go versions is part of the cache-soundness contract).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
