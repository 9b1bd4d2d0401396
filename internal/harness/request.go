package harness

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// Request selects a sweep by name: the body of the simulation service's
// POST /sweeps, and what the experiments and sdoctl commands build from
// their flags (RequestFlags). Empty lists mean "all"; a zero MaxInstrs
// means the default budget; a nil WarmupInstrs means the default warmup
// (a pointer so an explicit 0 — no warmup — is expressible).
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
	// (Variants is ignored), and its results read as AblationExport.
	Ablations bool `json:"ablations,omitempty"`
}

// RequestFlags defines one flag on fs per Request field and returns the
// request the parsed flags spell. A flag left unset leaves its field zero
// (nil for -warmup), so Resolve applies the one default.
func RequestFlags(fs *flag.FlagSet) func() Request {
	var req Request
	def := DefaultOptions()
	// Scheme and model names are lower-cased (each answers to its
	// lower-case spelling); workload names are kept as typed.
	list := func(dst *[]string, fold func(string) string) func(string) error {
		return func(s string) error {
			*dst = nil
			for _, name := range strings.Split(s, ",") {
				if name = fold(strings.TrimSpace(name)); name != "" {
					*dst = append(*dst, name)
				}
			}
			return nil
		}
	}
	asTyped := func(s string) string { return s }
	var schemes []string
	for _, v := range core.Registered() {
		schemes = append(schemes, strings.ToLower(v.String()))
	}
	fs.Func("workloads", "comma-separated workloads (default: all)", list(&req.Workloads, asTyped))
	fs.Func("variants", "comma-separated schemes, any case: "+strings.Join(schemes, ", ")+" (default: the Table II rows)", list(&req.Variants, strings.ToLower))
	fs.Func("models", "comma-separated attack models, any case: spectre, futuristic (default: both)", list(&req.Models, strings.ToLower))
	fs.Uint64Var(&req.MaxInstrs, "instrs", 0, fmt.Sprintf("measured instructions per run (0: %d)", def.MaxInstrs))
	fs.Func("warmup", fmt.Sprintf("warmup instructions per run (default %d; 0: no warmup)", def.WarmupInstrs), func(s string) error {
		n, err := strconv.ParseUint(s, 0, 64)
		req.WarmupInstrs = &n
		return err
	})
	fs.Uint64Var(&req.IntervalCycles, "interval", 0, "interval statistics every N cycles of the measurement window, into the export (0: off)")
	fs.StringVar(&req.WarmupMode, "warmup-mode", "", "warmup mode: detailed (per-cell pipeline warmup) or functional (emulator warmup, one checkpoint per workload) (default: detailed)")
	fs.StringVar(&req.SimMode, "sim-mode", "", "simulation mode: detailed (cycle-accurate whole window) or sampled (SimPoint-style BBV clustering, representative intervals only) (default: detailed)")
	fs.Uint64Var(&req.SampleIntervalInstrs, "sample-interval", 0, "sampled mode: interval length in committed instructions (0: per-workload tuned default)")
	fs.IntVar(&req.SampleMaxK, "sample-max-k", 0, "sampled mode: maximum clusters/representatives per workload (0: per-workload tuned default)")
	fs.Uint64Var(&req.SampleSeed, "sample-seed", 0, fmt.Sprintf("sampled mode: BBV projection and clustering seed (0: %d)", simpoint.DefaultSeed))
	fs.BoolVar(&req.Ablations, "ablate", false, "run the design-space ablation study of individual SDO mechanisms (Unsafe plus ablated Hybrid cells)")
	return func() Request { return req }
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
