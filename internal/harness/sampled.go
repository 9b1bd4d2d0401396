package harness

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// SimMode selects how a sweep executes each cell's measurement window.
type SimMode string

const (
	// SimDetailed simulates the whole window cycle-accurately — the
	// default, and the mode every golden file is produced in.
	SimDetailed SimMode = "detailed"
	// SimSampled is SimPoint-style sampled simulation: the window is BBV-
	// profiled and clustered once per workload (internal/simpoint), only
	// the representative interval of each cluster runs detailed (restored
	// from a functional checkpoint at its start), and whole-window stats
	// are reconstructed as the weighted combination of the
	// representatives' per-instruction rates (reconstructResult).
	SimSampled SimMode = "sampled"
)

// ParseSimMode parses a -sim-mode flag value ("" means detailed).
func ParseSimMode(s string) (SimMode, error) {
	switch SimMode(s) {
	case "", SimDetailed:
		return SimDetailed, nil
	case SimSampled:
		return SimSampled, nil
	}
	return "", fmt.Errorf("harness: unknown sim mode %q (want %q or %q)", s, SimDetailed, SimSampled)
}

// SamplePlan is a workload's executable sampling plan: the clustering
// result plus one functional-warmup checkpoint at each representative's
// start boundary. A plan depends only on (workload, warmup, window,
// simpoint.Config) — never on variant, model or ablation — so one plan is
// shared by every cell of a sweep grid, exactly like the detailed path's
// single warmup checkpoint.
type SamplePlan struct {
	Plan *simpoint.Plan
	// Checkpoints[i] restores representative Plan.Reps[i]: captured at
	// Reps[i].Start by one continuous warmup pass, so cache/TLB/predictor
	// warmup is carried across the skipped intervals in between.
	Checkpoints []*arch.Checkpoint
}

// BuildSamplePlan profiles one workload's measurement window
// [warmup, warmup+window), clusters it, and captures the representative
// checkpoints in a single warmup pass. Both passes run on copy-on-write
// copies of the workload's initial image, so the plan's checkpoints share
// every page the kernel did not dirty — with each other and, for a suite
// workload, with the process-wide image. Both are deterministic (seeded
// clustering, arch.CaptureSeries): every build from the same inputs
// yields a bit-identical plan.
func BuildSamplePlan(wl workload.Workload, warmup, window uint64, cfg simpoint.Config) (*SamplePlan, error) {
	prog, data := wl.Image()
	pr, err := simpoint.ProfileProgram(prog, data, warmup, window, cfg)
	if err != nil {
		return nil, err
	}
	plan, err := pr.Cluster()
	if err != nil {
		return nil, err
	}
	cks := core.CaptureCheckpoints(core.Config{}, prog, data, plan.Boundaries())
	return &SamplePlan{Plan: plan, Checkpoints: cks}, nil
}

// repParams derives the RunParams of one representative interval from the
// cell's base params: restore the representative's checkpoint (functional
// warmup to its start boundary) and run detailed for its length. Interval
// sampling (IntervalCycles) is inherited: each representative produces
// its own time series, collected into Result.SampledWindows by
// reconstructResult's callers rather than flattened into one fake
// whole-window series.
func (sp *SamplePlan) repParams(base RunParams, ri int) RunParams {
	p := base
	p.WarmupMode = core.WarmupFunctional
	p.WarmupInstrs = sp.Plan.Reps[ri].Start
	p.MaxInstrs = sp.Plan.Reps[ri].Len
	p.Checkpoint = sp.Checkpoints[ri]
	return p
}

// subtractWarmBase removes the checkpoint's warm-access counter baseline
// from a representative's memory-system counters. A restored machine's
// hierarchy counters start at the values functional warmup accumulated by
// the representative's start boundary; subtracting them leaves the
// counts of the representative's own window, which is what the weighted
// per-instruction-rate reconstruction needs. (Detailed whole-window runs
// keep their historical warmup-inclusive memory counters; see DESIGN.md.)
func subtractWarmBase(r core.Result, ck *arch.Checkpoint) core.Result {
	sub := func(v, base uint64) uint64 {
		if v < base {
			return 0
		}
		return v - base
	}
	r.L1DHits = sub(r.L1DHits, ck.Hier.L1D.Hits)
	r.L1DMisses = sub(r.L1DMisses, ck.Hier.L1D.Misses)
	r.L2Hits = sub(r.L2Hits, ck.Hier.L2.Hits)
	r.L2Misses = sub(r.L2Misses, ck.Hier.L2.Misses)
	r.TLBMisses = sub(r.TLBMisses, ck.Hier.TLB.Misses)
	r.DRAMRowHits = sub(r.DRAMRowHits, ck.Hier.DRAM.RowHits)
	r.DRAMRowMisses = sub(r.DRAMRowMisses, ck.Hier.DRAM.RowMisses)
	return r
}

// RunSampledCell executes one sweep cell in sampled mode: every
// representative interval of the plan runs as its own fault-isolated
// RunCell (the deadline and abort hook apply per interval), up to workers
// of them concurrently, and the results are recombined into one
// whole-window core.Result. The int result is always 0 and the last
// argument is unused: the benchmark module's probes still use both, and
// they go with its next change.
func RunSampledCell(ctx context.Context, workers int, wl workload.Workload, v core.Variant, m pipeline.AttackModel,
	ab core.Ablation, sp *SamplePlan, p RunParams, pol RunPolicy, _ any) (core.Result, int, error) {
	reps := make([]core.Result, len(sp.Plan.Reps))
	parent := trace.FromContext(ctx)
	err := RunPool(ctx, workers, len(reps), func(ctx context.Context, i int) error {
		iv := parent.Child(trace.PhaseInterval)
		iv.Set("start", strconv.FormatUint(sp.Plan.Reps[i].Start, 10))
		iv.Set("len", strconv.FormatUint(sp.Plan.Reps[i].Len, 10))
		r, err := RunCell(ctx, wl, v, m, ab, sp.repParams(p, i), pol)
		iv.Finish()
		if err != nil {
			return err
		}
		reps[i] = subtractWarmBase(r, sp.Checkpoints[i])
		return nil
	})
	if err != nil {
		return core.Result{}, 0, err
	}
	rec := parent.Child(trace.PhaseReconstruct)
	out := reconstructResult(sp.Plan, reps)
	attachSampledWindows(sp.Plan, reps, &out)
	rec.Finish()
	return out, 0, nil
}

// attachSampledWindows collects the representatives' interval series
// (present when the cell ran with IntervalCycles > 0) into the
// reconstructed result as weighted per-window series. Counters stay the
// weighted whole-window reconstruction; the time series is reported in
// its honest per-window form instead of being silently dropped.
func attachSampledWindows(plan *simpoint.Plan, reps []core.Result, out *core.Result) {
	for i, rep := range plan.Reps {
		if i >= len(reps) || len(reps[i].Intervals) == 0 {
			continue
		}
		out.IntervalCycles = reps[i].IntervalCycles // config echo
		out.SampledWindows = append(out.SampledWindows, core.SampledWindow{
			Start:     rep.Start,
			Len:       rep.Len,
			Weight:    rep.Weight,
			Intervals: reps[i].Intervals,
		})
	}
}

// reconstructResult recombines the representatives' results into the
// whole-window estimate: every uint64 counter c becomes
//
//	round( Σ_reps weight · (c_rep / committed_rep) · window )
//
// i.e. the weighted per-instruction rate of each cluster applied to the
// whole window's instruction count. Committed therefore reconstructs to
// ≈ the window itself, Cycles to the estimated whole-window execution
// time, and ratio metrics (IPC, normalized time, squashes/kilo-instr)
// follow. Occupancy histograms are whole-window artifacts and stay nil;
// interval series are carried per representative window (see
// attachSampledWindows), not flattened here; Result.IntervalCycles is
// config echo, not a counter, and is skipped by name.
func reconstructResult(plan *simpoint.Plan, reps []core.Result) core.Result {
	var out core.Result
	var acc []float64
	for i, rep := range plan.Reps {
		if i >= len(reps) || reps[i].Committed == 0 {
			continue
		}
		f := rep.Weight * float64(plan.WindowInstrs) / float64(reps[i].Committed)
		vals := flattenCounters(reflect.ValueOf(reps[i]), nil)
		if acc == nil {
			acc = make([]float64, len(vals))
			out.Variant, out.Model = reps[i].Variant, reps[i].Model
		}
		for j, v := range vals {
			acc[j] += f * v
		}
	}
	if acc != nil {
		idx := 0
		unflattenCounters(reflect.ValueOf(&out).Elem(), acc, &idx)
	}
	return out
}

// reconstructSkip names the uint64 fields that are configuration echo
// rather than accumulating counters.
func reconstructSkip(name string) bool { return name == "IntervalCycles" }

// flattenCounters appends every uint64 counter reachable from v (struct
// fields and array elements, recursively) in deterministic traversal
// order. Slices, bools and non-uint64 scalars are not counters and are
// skipped; unflattenCounters mirrors the traversal exactly.
func flattenCounters(v reflect.Value, out []float64) []float64 {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).PkgPath != "" || reconstructSkip(t.Field(i).Name) {
				continue
			}
			out = flattenCounters(v.Field(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = flattenCounters(v.Index(i), out)
		}
	case reflect.Uint64:
		out = append(out, float64(v.Uint()))
	}
	return out
}

func unflattenCounters(v reflect.Value, vals []float64, idx *int) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).PkgPath != "" || reconstructSkip(t.Field(i).Name) {
				continue
			}
			unflattenCounters(v.Field(i), vals, idx)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			unflattenCounters(v.Index(i), vals, idx)
		}
	case reflect.Uint64:
		v.SetUint(uint64(math.Round(vals[*idx])))
		*idx++
	}
}
