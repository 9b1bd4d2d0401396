// Package harness runs the paper's evaluation (§VIII): it sweeps the Table
// II design variants over the workload suite under both attack models and
// regenerates Figure 6 (normalized execution time), Figure 7 (overhead
// breakdown), Figure 8 (squashes vs. execution time), Table III (predictor
// precision/accuracy) and the §VIII-B headline summary.
//
// Methodology: like the paper's SimPoint fragments, every run commits the
// same fixed instruction budget, so execution time (cycles) is directly
// comparable across configurations and normalizes against the Unsafe run
// of the same workload.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// Options configures a sweep.
type Options struct {
	// WarmupInstrs warms caches/TLB/predictors before measurement.
	WarmupInstrs uint64
	// WarmupMode selects detailed (default) or functional warmup. With
	// functional warmup the sweep captures one warmup checkpoint per
	// workload and restores it for every (variant, model) cell instead of
	// re-simulating warmup per cell (see NoCheckpointReuse).
	WarmupMode core.WarmupMode
	// NoCheckpointReuse forces functional warmup to run in place for every
	// cell instead of restoring the per-workload checkpoint. Results are
	// bit-identical either way (the CI smoke asserts it); the switch exists
	// to measure and test exactly that.
	NoCheckpointReuse bool
	// MaxInstrs is the committed-instruction budget per measured run. The
	// sum of warmup and measurement must stay below every kernel's natural
	// dynamic length.
	MaxInstrs uint64
	// SimMode selects detailed (default) or SimPoint-sampled execution of
	// each cell's measurement window. Sampled mode requires MaxInstrs > 0
	// (the window must be finite to profile) and ignores IntervalCycles
	// and the warmup/checkpoint knobs' reuse switch: sampling is built on
	// per-representative functional checkpoints.
	SimMode SimMode
	// Sample holds the sampled-mode parameters; the zero value selects the
	// simpoint package defaults. Ignored in detailed mode.
	Sample simpoint.Config
	// Workloads is the benchmark list (default: workload.All()).
	Workloads []workload.Workload
	// Variants are the Table II rows to run (default: all).
	Variants []core.Variant
	// Models are the attack models to run (default: Spectre, Futuristic).
	Models []pipeline.AttackModel
	// IntervalCycles, when non-zero, collects an interval statistics
	// point every IntervalCycles cycles of each run's measurement window
	// (core.Config.IntervalCycles); the series rides along in each
	// core.Result and in the JSON export.
	IntervalCycles uint64
	// Parallel runs independent simulations on all CPUs.
	Parallel bool
	// Progress, if non-nil, receives a line per completed run.
	Progress func(string)

	// Policy is the per-cell fault-tolerance policy (retries, deadlines,
	// stall watchdog). The zero value preserves historical behavior.
	Policy RunPolicy
	// Faults optionally injects chaos faults into cell execution; nil
	// (production) injects nothing and costs a nil compare per site.
	Faults *faults.Injector
	// TolerateFailures records permanently-failed cells in
	// Results.Failures and completes the sweep without them, instead of
	// failing the whole sweep on the first bad cell.
	TolerateFailures bool
}

// DefaultOptions returns the full sweep at a laptop-scale budget.
func DefaultOptions() Options {
	return Options{
		WarmupInstrs: 50_000,
		MaxInstrs:    60_000,
		Workloads:    workload.All(),
		Variants:     core.Variants(),
		Models:       []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic},
		Parallel:     true,
	}
}

// Normalized returns opt with unset fields filled from the defaults, so
// every consumer (CLI sweep, simulation service) resolves a request the
// same way.
func (o Options) Normalized() Options {
	if o.MaxInstrs == 0 {
		o.MaxInstrs = DefaultOptions().MaxInstrs
	}
	if o.Workloads == nil {
		o.Workloads = workload.All()
	}
	if o.Variants == nil {
		o.Variants = core.Variants()
	}
	if o.Models == nil {
		o.Models = []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic}
	}
	if o.SimMode == "" {
		o.SimMode = SimDetailed
	}
	// o.Sample is deliberately NOT default-filled here: zero fields mean
	// "unset", and the per-workload tuning table (TunedSampleConfig)
	// resolves them at plan-build time, per workload. Filling global
	// defaults here would erase the distinction between "caller asked
	// for 5000" and "caller left it to us".
	return o
}

// Workers returns the worker-pool size the options imply.
func (o Options) Workers() int {
	if o.Parallel {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// Key identifies one run.
type Key struct {
	Workload string
	Variant  core.Variant
	Model    pipeline.AttackModel
}

// Cells enumerates the sweep's (workload, variant, model) grid in the
// canonical order (workloads outermost, models innermost).
func (o Options) Cells() []Key {
	o = o.Normalized()
	var cells []Key
	for _, wl := range o.Workloads {
		for _, v := range o.Variants {
			for _, m := range o.Models {
				cells = append(cells, Key{wl.Name, v, m})
			}
		}
	}
	return cells
}

// Results holds a completed sweep.
type Results struct {
	Opt  Options
	Runs map[Key]core.Result

	// WarmupInstrsSimulated counts warmup instructions actually simulated
	// across the sweep (nominal budget per warmed cell, actual executed
	// count per checkpoint capture). With checkpoint reuse a sweep warms
	// once per workload instead of once per cell, so this counter is what
	// the CI speedup smoke compares. Deliberately not part of the JSON
	// Export: reuse on/off exports must stay byte-identical.
	WarmupInstrsSimulated uint64
	// CheckpointsCaptured counts per-workload warmup checkpoints captured
	// (0 unless functional warmup with checkpoint reuse ran).
	CheckpointsCaptured int

	// Sampled-mode bookkeeping (nil/zero in detailed mode). SamplePlans
	// maps workload name to its clustering plan, for run summaries
	// (chosen k, sampled fraction, error estimate). ProfiledInstrs counts
	// functional instructions the BBV profiling pass executed. Like the
	// warmup counters these never enter the JSON Export: a sampled export
	// carries only the reconstructed runs.
	SamplePlans    map[string]*simpoint.Plan
	ProfiledInstrs uint64
	// DetailedInstrsSimulated counts instructions committed by the
	// detailed pipeline across the sweep — in sampled mode only the
	// representative intervals, which is what the "measurably fewer
	// detailed instructions" summary line compares against the full
	// window.
	DetailedInstrsSimulated uint64

	// Retries counts cell attempts beyond the first across the sweep
	// (non-zero only under a retrying Policy). Like the warmup counters,
	// deliberately not part of the JSON Export: a chaos run that recovers
	// through retries must export byte-identically to a clean run.
	Retries uint64
	// Failures lists cells that failed permanently. Empty unless
	// Options.TolerateFailures let the sweep complete around them.
	Failures []CellFailure

	// Attrib carries per-cell latency attributions when the producer ran
	// with tracing enabled (the simulation service's trace layer); nil
	// otherwise. Unlike the counters above it DOES enter the JSON Export
	// (ExportRun.Attribution, omitted when absent): attribution is an
	// explicitly opt-in annotation, and an untraced run's export stays
	// byte-identical to one produced before tracing existed.
	Attrib map[Key]*trace.Attribution
}

// CellFailure records one permanently-failed cell of a tolerant sweep.
type CellFailure struct {
	Key      Key    `json:"key"`
	Kind     string `json:"kind"`
	Attempts int    `json:"attempts"`
	Err      string `json:"error"`
}

// RunParams carries the per-run bounds and warmup policy of a cell —
// everything RunOne needs beyond the cell's identity.
type RunParams struct {
	WarmupInstrs   uint64
	MaxInstrs      uint64
	IntervalCycles uint64
	WarmupMode     core.WarmupMode
	// Checkpoint, when non-nil, is a pre-captured functional-warmup
	// snapshot restored instead of re-running warmup (requires
	// WarmupFunctional and a matching WarmupInstrs).
	Checkpoint *arch.Checkpoint
	// Check, when non-nil, is polled by the pipeline every few thousand
	// cycles; a non-nil return aborts the run. RunCell assembles this
	// from its policy (cancellation, deadline, stall watchdog); direct
	// RunOne callers normally leave it nil.
	Check func(cycle, committed uint64) error
}

// Params returns the per-run parameters the options imply (without a
// checkpoint; RunContext fills that in per workload when reuse is on).
func (o Options) Params() RunParams {
	return RunParams{
		WarmupInstrs:   o.WarmupInstrs,
		MaxInstrs:      o.MaxInstrs,
		IntervalCycles: o.IntervalCycles,
		WarmupMode:     o.WarmupMode,
	}
}

// reuseCheckpoints reports whether the sweep warms via per-workload
// checkpoints.
func (o Options) reuseCheckpoints() bool {
	return o.WarmupMode == core.WarmupFunctional && !o.NoCheckpointReuse && o.WarmupInstrs > 0
}

// CaptureCheckpoint runs functional warmup for one workload and snapshots
// the result for reuse across every cell that shares (workload, warmup).
func CaptureCheckpoint(wl workload.Workload, warmup uint64) *arch.Checkpoint {
	prog, data := wl.Image()
	return core.CaptureCheckpoints(core.Config{}, prog, data, []uint64{warmup})[0]
}

// RunOne executes a single simulation cell: one workload under one design
// variant and attack model. This is the single execution path shared by
// the CLI sweep, the ablation study and the simulation service. Every
// call — a retry after a panic included — starts from a pristine image: a
// private copy-on-write copy of the workload's initial image, or, when a
// checkpoint is restored, the checkpoint's own pages over an empty memory.
func RunOne(wl workload.Workload, v core.Variant, m pipeline.AttackModel, ab core.Ablation, p RunParams) (core.Result, error) {
	var prog *isa.Program
	var data *isa.Memory
	if p.Checkpoint != nil {
		prog, _ = wl.Build()
		data = isa.NewMemory() // Restore below supplies the image
	} else {
		prog, data = wl.Image()
	}
	machine := core.NewMachineWithMemory(core.Config{
		Variant:        v,
		Model:          m,
		Ablate:         ab,
		WarmupInstrs:   p.WarmupInstrs,
		WarmupMode:     p.WarmupMode,
		MaxInstrs:      p.MaxInstrs,
		IntervalCycles: p.IntervalCycles,
		Check:          p.Check,
	}, prog, data)
	if p.Checkpoint != nil {
		if err := machine.Restore(p.Checkpoint); err != nil {
			return core.Result{}, err
		}
	}
	r, err := machine.Run()
	// Reached only when Run returned: a machine a panic unwound out of, or
	// one Restore rejected, keeps its hierarchy out of the pool.
	machine.Release()
	return r, err
}

// FormatProgress renders the per-run progress line.
func FormatProgress(k Key, r core.Result) string {
	return fmt.Sprintf("%-14s %-11s %-10s %9d cycles (IPC %.2f)",
		k.Workload, k.Variant, k.Model, r.Cycles, r.IPC())
}

// Run executes the sweep.
func Run(opt Options) (*Results, error) {
	return RunContext(context.Background(), opt)
}

// RunContext executes the sweep on a fixed-size worker pool, stopping
// (no new simulations are started) as soon as ctx is cancelled or any
// run fails.
func RunContext(ctx context.Context, opt Options) (*Results, error) {
	opt = opt.Normalized()
	res := &Results{Opt: opt, Runs: make(map[Key]core.Result)}

	byName := make(map[string]workload.Workload, len(opt.Workloads))
	for _, wl := range opt.Workloads {
		byName[wl.Name] = wl
	}
	cells := opt.Cells()

	if opt.SimMode == SimSampled {
		return runSampledSweep(ctx, opt, res, byName, cells)
	}

	// With functional warmup, capture one checkpoint per workload up front
	// and restore it into every (variant, model) cell: the grid then warms
	// each workload once instead of len(variants)×len(models) times.
	checkpoints := make(map[string]*arch.Checkpoint)
	if opt.reuseCheckpoints() {
		var cmu sync.Mutex
		if err := RunPool(ctx, opt.Workers(), len(opt.Workloads), func(ctx context.Context, i int) error {
			wl := opt.Workloads[i]
			ck := CaptureCheckpoint(wl, opt.WarmupInstrs)
			cmu.Lock()
			defer cmu.Unlock()
			checkpoints[wl.Name] = ck
			res.CheckpointsCaptured++
			res.WarmupInstrsSimulated += ck.Arch.Instrs
			return nil
		}); err != nil {
			return res, err
		}
	}

	var mu sync.Mutex
	err := RunPool(ctx, opt.Workers(), len(cells), func(ctx context.Context, i int) error {
		k := cells[i]
		p := opt.Params()
		p.Checkpoint = checkpoints[k.Workload]
		r, retries, err := RunCell(ctx, byName[k.Workload], k.Variant, k.Model, core.Ablation{}, p, opt.Policy, opt.Faults)
		mu.Lock()
		defer mu.Unlock()
		res.Retries += uint64(retries)
		if err != nil {
			var ce *CellError
			if opt.TolerateFailures && errors.As(err, &ce) {
				res.Failures = append(res.Failures, CellFailure{
					Key: k, Kind: string(ce.Kind), Attempts: ce.Attempts, Err: ce.Err.Error()})
				return nil
			}
			return fmt.Errorf("harness: %s/%v/%v: %w", k.Workload, k.Variant, k.Model, err)
		}
		res.Runs[k] = r
		res.DetailedInstrsSimulated += r.Committed
		if p.Checkpoint == nil && opt.WarmupInstrs > 0 {
			res.WarmupInstrsSimulated += opt.WarmupInstrs
		}
		if opt.Progress != nil {
			opt.Progress(FormatProgress(k, r))
		}
		return nil
	})
	return res, err
}

// Get returns one run's result.
func (r *Results) Get(wl string, v core.Variant, m pipeline.AttackModel) (core.Result, bool) {
	res, ok := r.Runs[Key{wl, v, m}]
	return res, ok
}

// NormTime returns the run's execution time normalized to the Unsafe run
// of the same workload/model (Figure 6's metric).
func (r *Results) NormTime(wl string, v core.Variant, m pipeline.AttackModel) float64 {
	base, ok1 := r.Get(wl, core.Unsafe, m)
	run, ok2 := r.Get(wl, v, m)
	if !ok1 || !ok2 || base.Cycles == 0 {
		return 0
	}
	return float64(run.Cycles) / float64(base.Cycles)
}

// workloadNames lists the workloads present in the sweep, in suite order.
func (r *Results) workloadNames() []string {
	var names []string
	for _, wl := range r.Opt.Workloads {
		names = append(names, wl.Name)
	}
	return names
}

// AvgNormTime averages NormTime over all workloads (the "Avg" bars of
// Figure 6).
func (r *Results) AvgNormTime(v core.Variant, m pipeline.AttackModel) float64 {
	var sum float64
	var n int
	for _, wl := range r.workloadNames() {
		if t := r.NormTime(wl, v, m); t > 0 {
			sum += t
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AvgOverheadPct is the average overhead vs Unsafe, in percent.
func (r *Results) AvgOverheadPct(v core.Variant, m pipeline.AttackModel) float64 {
	return (r.AvgNormTime(v, m) - 1) * 100
}

// ImprovementPct returns how much variant v improves on baseline b, as the
// paper reports it: the fraction of the baseline's overhead eliminated.
func (r *Results) ImprovementPct(v, b core.Variant, m pipeline.AttackModel) float64 {
	ob := r.AvgOverheadPct(b, m)
	ov := r.AvgOverheadPct(v, m)
	if ob <= 0 {
		return 0
	}
	return (ob - ov) / ob * 100
}

// PredictorQuality aggregates Table III for one variant/model: precision =
// precise / all, accuracy = (precise + imprecise) / all, over all resolved
// Obl-Lds in the sweep.
func (r *Results) PredictorQuality(v core.Variant, m pipeline.AttackModel) (precision, accuracy float64) {
	var precise, imprecise, inaccurate uint64
	for _, wl := range r.workloadNames() {
		if run, ok := r.Get(wl, v, m); ok {
			precise += run.PredPrecise
			imprecise += run.PredImprecise
			inaccurate += run.PredInaccurate
		}
	}
	total := precise + imprecise + inaccurate
	if total == 0 {
		return 0, 0
	}
	return float64(precise) / float64(total), float64(precise+imprecise) / float64(total)
}

// SquashesPerKInstr averages total squashes per 1000 committed
// instructions (Figure 8's x-axis).
func (r *Results) SquashesPerKInstr(v core.Variant, m pipeline.AttackModel) float64 {
	var squashes, instrs uint64
	for _, wl := range r.workloadNames() {
		if run, ok := r.Get(wl, v, m); ok {
			squashes += run.TotalSquashes()
			instrs += run.Committed
		}
	}
	if instrs == 0 {
		return 0
	}
	return float64(squashes) / float64(instrs) * 1000
}

// Breakdown is Figure 7's decomposition of one SDO variant's slowdown.
// Components are percentages of execution time added over Unsafe,
// averaged across workloads.
type Breakdown struct {
	Variant    core.Variant
	Model      pipeline.AttackModel
	TotalPct   float64 // total overhead vs Unsafe
	Inaccurate float64 // squashes from failed Obl-Lds
	Imprecise  float64 // waiting for over-predicted levels
	Validation float64 // commit stalls on validations
	TLB        float64 // ⊥-translation squashes (§V-B)
	Other      float64 // no-fill misses, implicit channels, contention
}

// squashRefillCost approximates the pipeline refill penalty charged per
// squash when attributing slowdown (frontend redirect + re-dispatch).
const squashRefillCost = 16.0

// BreakdownFor computes the Figure 7 attribution for one variant/model.
// ImprecisionCycles and ValidationStall are measured exactly; squash costs
// are counted as squashed-instruction refill estimates; the remainder of
// the measured slowdown is "other".
func (r *Results) BreakdownFor(v core.Variant, m pipeline.AttackModel) Breakdown {
	b := Breakdown{Variant: v, Model: m}
	var over, inacc, imprec, val, tlb float64
	var n int
	for _, wl := range r.workloadNames() {
		base, ok1 := r.Get(wl, core.Unsafe, m)
		run, ok2 := r.Get(wl, v, m)
		if !ok1 || !ok2 || base.Cycles == 0 {
			continue
		}
		n++
		slow := float64(run.Cycles) - float64(base.Cycles)
		if slow < 0 {
			slow = 0
		}
		sq := run.SquashesByCause()
		ci := float64(sq["obl-fail"]) * squashRefillCost
		ct := float64(sq["tlb"]) * squashRefillCost
		cv := float64(run.ValidationStall)
		cp := float64(run.ImprecisionCycles)
		sum := ci + ct + cv + cp
		if sum > slow && sum > 0 {
			// The components overlap with latency hiding; scale to fit.
			f := slow / sum
			ci, ct, cv, cp = ci*f, ct*f, cv*f, cp*f
			sum = slow
		}
		den := float64(base.Cycles)
		over += slow / den * 100
		inacc += ci / den * 100
		imprec += cp / den * 100
		val += cv / den * 100
		tlb += ct / den * 100
	}
	if n == 0 {
		return b
	}
	fn := float64(n)
	b.TotalPct = over / fn
	b.Inaccurate = inacc / fn
	b.Imprecise = imprec / fn
	b.Validation = val / fn
	b.TLB = tlb / fn
	b.Other = b.TotalPct - b.Inaccurate - b.Imprecise - b.Validation - b.TLB
	if b.Other < 0 {
		b.Other = 0
	}
	return b
}

// AblationRow is one row of the design-space study: the paper's full
// STT+SDO with one mechanism changed.
type AblationRow struct {
	Name     string        `json:"name"`
	Ablate   core.Ablation `json:"ablate"`
	NormTime float64       `json:"norm_time"` // vs Unsafe, averaged over the sweep's workloads
}

// AblationRows returns the design-space study's row templates in report
// order (NormTime unset): the paper's full STT+SDO and one-mechanism-off
// variations of it. Shared by RunAblations and the simulation service's
// cell enumeration.
func AblationRows() []AblationRow {
	return []AblationRow{
		{Name: "STT+SDO (paper)"},
		{Name: "no early forwarding", Ablate: core.Ablation{DisableEarlyForward: true}},
		{Name: "no exposures (always validate)", Ablate: core.Ablation{AlwaysValidate: true}},
		{Name: "no implicit-channel protection (INSECURE)", Ablate: core.Ablation{NoImplicitChannelProtection: true}},
		{Name: "with DO DRAM variant", Ablate: core.Ablation{OblDRAMVariant: true}},
	}
}

// AggregateAblations fills in each row's NormTime from per-(workload, row)
// cycle counts: cycles[wi][0] is workload wi's Unsafe baseline and
// cycles[wi][1+ri] the Hybrid run with rows[ri].Ablate. A workload with a
// zero baseline is skipped. Shared by RunAblations and the service's
// ablation-export path.
func AggregateAblations(rows []AblationRow, cycles [][]uint64) {
	sums := make([]float64, len(rows))
	counts := make([]int, len(rows))
	for _, wc := range cycles {
		if len(wc) != len(rows)+1 || wc[0] == 0 {
			continue
		}
		for ri := range rows {
			sums[ri] += float64(wc[1+ri]) / float64(wc[0])
			counts[ri]++
		}
	}
	for i := range rows {
		rows[i].NormTime = 0
		if counts[i] > 0 {
			rows[i].NormTime = sums[i] / float64(counts[i])
		}
	}
}

// RunAblations measures the contribution of individual SDO/STT mechanisms
// on the Hybrid configuration: the §V-C2 early-forwarding optimisation,
// InvisiSpec exposures, STT's implicit-channel rules, and the DO DRAM
// variant the paper declines to build (§VI-B2). Functional warmup with
// checkpoint reuse warms each workload once and shares the snapshot
// across the baseline and every ablation cell — sound because ablations
// only alter speculative execution, which functional warmup has none of.
func RunAblations(opt Options, model pipeline.AttackModel) ([]AblationRow, error) {
	return RunAblationsContext(context.Background(), opt, model)
}

// RunAblationsContext is RunAblations with cancellation.
func RunAblationsContext(ctx context.Context, opt Options, model pipeline.AttackModel) ([]AblationRow, error) {
	if opt.MaxInstrs == 0 {
		opt.MaxInstrs = DefaultOptions().MaxInstrs
	}
	if opt.Workloads == nil {
		opt.Workloads = workload.All()
	}
	rows := AblationRows()
	cycles := make([][]uint64, len(opt.Workloads))
	err := RunPool(ctx, opt.Workers(), len(opt.Workloads), func(ctx context.Context, wi int) error {
		wl := opt.Workloads[wi]
		p := opt.Params()
		p.IntervalCycles = 0
		if opt.reuseCheckpoints() {
			p.Checkpoint = CaptureCheckpoint(wl, opt.WarmupInstrs)
		}
		// A permanent failure anywhere in a tolerant ablation block zeroes
		// the whole workload block: AggregateAblations skips zero-baseline
		// workloads, so the table aggregates only fully-measured ones.
		wc := make([]uint64, 1+len(rows))
		base, _, err := RunCell(ctx, wl, core.Unsafe, model, core.Ablation{}, p, opt.Policy, opt.Faults)
		if err != nil {
			var ce *CellError
			if opt.TolerateFailures && errors.As(err, &ce) {
				return nil
			}
			return err
		}
		wc[0] = base.Cycles
		if base.Cycles != 0 {
			for ri := range rows {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				r, _, err := RunCell(ctx, wl, core.Hybrid, model, rows[ri].Ablate, p, opt.Policy, opt.Faults)
				if err != nil {
					var ce *CellError
					if opt.TolerateFailures && errors.As(err, &ce) {
						return nil
					}
					return err
				}
				wc[1+ri] = r.Cycles
			}
		}
		cycles[wi] = wc
		return nil
	})
	if err != nil {
		return nil, err
	}
	AggregateAblations(rows, cycles)
	return rows, nil
}
