package harness

import "repro/internal/simpoint"

// Per-workload sampled-mode tuning. The one-size default sampling
// config (simpoint.Config.WithDefaults: 5000 / 8) treats a
// pointer-chasing workload and a streaming kernel identically, but the
// phase structure they expose to BBV clustering is very different:
// irregular workloads need finer intervals (and benefit from more
// clusters) to keep reconstruction error down, while regular kernels
// reach the same accuracy with coarser intervals and fewer
// representatives — strictly cheaper plans. This table is consulted
// only for fields the caller left unset (zero), so explicit flags and
// request parameters always win, and workloads without an entry fall
// back to the package defaults. TestSampledAccuracy pins the tuned
// configs to the same ≤6% IPC error bound as the defaults.
var sampleTuning = map[string]simpoint.Config{
	"mcf_r":       {IntervalInstrs: 4000, MaxK: 8}, // pointer-chasing, irregular phases
	"omnetpp_r":   {IntervalInstrs: 4000, MaxK: 8}, // event-queue churn, fine phases
	"x264_r":      {IntervalInstrs: 4000, MaxK: 8}, // frame-type alternation
	"gcc_r":       {IntervalInstrs: 5000, MaxK: 8}, // many phases; default interval fits
	"xalancbmk_r": {IntervalInstrs: 5000, MaxK: 8}, // branchy traversal
	"deepsjeng_r": {IntervalInstrs: 5000, MaxK: 6}, // search plies repeat
	"xz_r":        {IntervalInstrs: 6000, MaxK: 6}, // long match/literal phases
	"exchange2_r": {IntervalInstrs: 6000, MaxK: 6}, // recursive but self-similar
	"lbm_r":       {IntervalInstrs: 8000, MaxK: 4}, // streaming stencil, near-uniform
	"namd_r":      {IntervalInstrs: 8000, MaxK: 4}, // regular force loops
	"fotonik3d_r": {IntervalInstrs: 8000, MaxK: 4}, // regular FDTD sweeps
}

// TunedSampleConfig fills the unset (zero) fields of a sampling config
// from the per-workload tuning table, then from the package defaults.
// Explicitly-set fields pass through untouched, so callers that pin a
// sampling config get exactly what they asked for on every workload.
func TunedSampleConfig(workloadName string, cfg simpoint.Config) simpoint.Config {
	t := sampleTuning[workloadName]
	if cfg.IntervalInstrs == 0 {
		cfg.IntervalInstrs = t.IntervalInstrs
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = t.MaxK
	}
	return cfg.WithDefaults()
}
