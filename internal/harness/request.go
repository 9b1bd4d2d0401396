package harness

import (
	"errors"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// Request selects a sweep by name: the body of the simulation service's
// POST /sweeps, and what the experiments and sdoctl commands build from
// their flags. Empty lists mean "all"; a zero MaxInstrs means the default
// budget; a nil WarmupInstrs means the default warmup (a pointer so an
// explicit 0 — no warmup — is expressible).
type Request struct {
	Workloads    []string `json:"workloads,omitempty"`
	Variants     []string `json:"variants,omitempty"`
	Models       []string `json:"models,omitempty"`
	MaxInstrs    uint64   `json:"max_instrs,omitempty"`
	WarmupInstrs *uint64  `json:"warmup_instrs,omitempty"`
	// IntervalCycles samples an interval statistics point every N cycles
	// of each run's measurement window into the export (0: off).
	IntervalCycles uint64 `json:"interval_cycles,omitempty"`
	// WarmupMode is "detailed" (default) or "functional". Functional-mode
	// cells restore a per-(workload, warmup) checkpoint from the
	// executor's memo instead of re-simulating warmup.
	WarmupMode string `json:"warmup_mode,omitempty"`
	// SimMode is "detailed" (default: cycle-accurate whole window) or
	// "sampled" (SimPoint-style: BBV-cluster the window, run only the
	// representative interval of each phase, reconstruct whole-window
	// stats from the weighted per-instruction rates). Sampled cells share
	// one sampling plan per workload via the executor's memo and are
	// cached under sampling-aware keys, distinct from detailed results.
	SimMode string `json:"sim_mode,omitempty"`
	// SampleIntervalInstrs, SampleMaxK and SampleSeed are the sampled-mode
	// parameters (0 means the per-workload tuned defaults).
	SampleIntervalInstrs uint64 `json:"sample_interval_instrs,omitempty"`
	SampleMaxK           int    `json:"sample_max_k,omitempty"`
	SampleSeed           uint64 `json:"sample_seed,omitempty"`
	// Ablations turns the sweep into a design-space study: per model and
	// workload it runs the Unsafe baseline plus the AblationRows on Hybrid
	// (Variants is ignored), and its results read as AblationTables.
	Ablations bool `json:"ablations,omitempty"`
}

// Resolve turns the request into normalized options and the cells to run:
// the grid (Options.Specs) or, for an ablation study, Options.AblationSpecs.
// Every name must resolve: a suite workload, a registered scheme, an
// attack model.
func (req Request) Resolve() (Options, []RunSpec, error) {
	opt := DefaultOptions()
	if req.MaxInstrs != 0 {
		opt.MaxInstrs = req.MaxInstrs
	}
	if req.WarmupInstrs != nil {
		opt.WarmupInstrs = *req.WarmupInstrs
	}
	opt.IntervalCycles = req.IntervalCycles
	var err error
	if opt.WarmupMode, err = core.ParseWarmupMode(req.WarmupMode); err != nil {
		return opt, nil, err
	}
	if opt.SimMode, err = ParseSimMode(req.SimMode); err != nil {
		return opt, nil, err
	}
	if opt.SimMode == SimSampled {
		if req.Ablations {
			return opt, nil, errors.New("harness: ablation studies run detailed simulation; use sim mode detailed")
		}
		opt.Sample = simpoint.Config{
			IntervalInstrs: req.SampleIntervalInstrs,
			MaxK:           req.SampleMaxK,
			Seed:           req.SampleSeed,
		}
	}
	if opt.Workloads, err = parseAll(req.Workloads, opt.Workloads, workload.ByName); err != nil {
		return opt, nil, err
	}
	if opt.Variants, err = parseAll(req.Variants, opt.Variants, core.ParseVariant); err != nil {
		return opt, nil, err
	}
	if opt.Models, err = parseAll(req.Models, opt.Models, pipeline.ParseAttackModel); err != nil {
		return opt, nil, err
	}
	opt = opt.Normalized()
	if req.Ablations {
		return opt, opt.AblationSpecs(), nil
	}
	return opt, opt.Specs(), nil
}

// parseAll parses every name, or returns def for an empty list.
func parseAll[T any](names []string, def []T, parse func(string) (T, error)) ([]T, error) {
	if len(names) == 0 {
		return def, nil
	}
	out := make([]T, 0, len(names))
	for _, name := range names {
		v, err := parse(name)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
