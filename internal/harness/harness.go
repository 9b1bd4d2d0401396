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
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
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
	// re-simulating warmup per cell (see Executor).
	WarmupMode core.WarmupMode
	// MaxInstrs is the committed-instruction budget per measured run. The
	// sum of warmup and measurement must stay below every kernel's natural
	// dynamic length.
	MaxInstrs uint64
	// SimMode selects detailed (default) or SimPoint-sampled execution of
	// each cell's measurement window. Sampled mode requires MaxInstrs > 0
	// (the window must be finite to profile); it is built on
	// per-representative functional checkpoints whatever WarmupMode says.
	SimMode SimMode
	// Sample holds the sampled-mode parameters; the zero value selects the
	// simpoint package defaults. Ignored in detailed mode.
	Sample simpoint.Config
	// Workloads is the benchmark list (default: workload.All()). Cells
	// name their workload (RunSpec), so every entry must be a suite
	// workload workload.ByName resolves.
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
	// Observer, if non-nil, records the pipeline and memory events of a
	// one-cell run (RunParams.Observer). Its sinks are single-goroutine,
	// so RunSpecs refuses it for any other number of cells.
	Observer *obs.Recorder
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

// Key names one run in a sweep's or a study's results: a grid cell
// (zero Ablate) or a design-space cell (AblationSpecs).
type Key struct {
	Workload string
	Variant  core.Variant
	Model    pipeline.AttackModel
	Ablate   core.Ablation
}

// String names the cell "workload/variant/model", and an ablated cell
// "workload/variant/model/<AblationRows name>".
func (k Key) String() string {
	s := fmt.Sprintf("%s/%v/%v", k.Workload, k.Variant, k.Model)
	if k.Ablate != (core.Ablation{}) {
		s += "/" + ablationName(k.Ablate)
	}
	return s
}

// Cells enumerates the sweep's (workload, variant, model) grid in the
// canonical order (workloads outermost, models innermost).
func (o Options) Cells() []Key {
	o = o.Normalized()
	cells := make([]Key, 0, len(o.Workloads)*len(o.Variants)*len(o.Models))
	for _, wl := range o.Workloads {
		for _, v := range o.Variants {
			for _, m := range o.Models {
				cells = append(cells, Key{Workload: wl.Name, Variant: v, Model: m})
			}
		}
	}
	return cells
}

// Results holds a completed sweep. Its runs are shared, not copied:
// the simulation service's point at the results its cache holds, so
// every reader of a Results treats them as read-only.
type Results struct {
	Opt  Options
	Runs map[Key]*core.Result

	// WarmupInstrsSimulated counts warmup instructions actually simulated
	// across the sweep (nominal budget per warmed cell, actual executed
	// count per checkpoint capture). In functional mode a sweep warms once
	// per workload instead of once per cell, which is what the CI smoke
	// checks. Like every counter here it is read from the sweep's Executor
	// and deliberately not part of the JSON Export.
	WarmupInstrsSimulated uint64
	// CheckpointsCaptured counts warmup checkpoints captured: one per
	// workload in functional mode, one per representative in sampled mode.
	CheckpointsCaptured int

	// Sampled-mode bookkeeping (nil/zero in detailed mode). SamplePlans
	// maps workload name to its clustering plan, for run summaries
	// (chosen k, sampled fraction, error estimate). ProfiledInstrs counts
	// functional instructions the BBV profiling pass executed. A sampled
	// export carries only the reconstructed runs.
	SamplePlans    map[string]*simpoint.Plan
	ProfiledInstrs uint64
	// DetailedInstrsSimulated counts the instructions sampled cells ran on
	// the detailed pipeline — their representative intervals — which is
	// what the "measurably fewer detailed instructions" summary line
	// compares against the full window.
	DetailedInstrsSimulated uint64

	// SharedCells counts cells answered by an equivalent cell's simulation
	// (RunSpec.Representative) instead of their own; not exported, like
	// the counters around it.
	SharedCells int

	// Attrib carries per-cell latency attributions when the producer ran
	// with tracing enabled (the simulation service's trace layer); nil
	// otherwise. Unlike the counters above it DOES enter the JSON Export
	// (ExportRun.Attribution, omitted when absent): attribution is an
	// explicitly opt-in annotation, and an untraced run's export stays
	// byte-identical to one produced before tracing existed.
	Attrib map[Key]*trace.Attribution
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
	// from its policy (cancellation, deadline, abort); direct
	// RunOne callers normally leave it nil.
	Check func(cycle, committed uint64) error
	// Observer, when non-nil, is attached to the run's machine
	// (core.Machine.SetObserver).
	Observer *obs.Recorder
}

// CaptureCheckpoint runs functional warmup for one workload and snapshots
// the result for reuse across every cell that shares (workload, warmup).
func CaptureCheckpoint(wl workload.Workload, warmup uint64) *arch.Checkpoint {
	prog, data := wl.Image()
	return core.CaptureCheckpoints(core.Config{}, prog, data, []uint64{warmup})[0]
}

// RunOne executes a single simulation cell: one workload under one design
// variant and attack model. This is the single execution path shared by
// the CLI's sweeps and studies and the simulation service. Every
// call starts from a pristine image, so a cell always gives the same
// result: a private copy-on-write copy of the workload's initial image,
// or, when a checkpoint is restored, the checkpoint's own pages over an
// empty memory.
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
	if p.Observer != nil {
		machine.SetObserver(p.Observer)
	}
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

// FormatProgress renders the per-run progress line; an ablated cell's
// line ends with its AblationRows name.
func FormatProgress(k Key, r core.Result) string {
	line := fmt.Sprintf("%-14s %-11s %-10s %9d cycles (IPC %.2f)",
		k.Workload, k.Variant, k.Model, r.Cycles, r.IPC())
	if k.Ablate != (core.Ablation{}) {
		line += "  " + ablationName(k.Ablate)
	}
	return line
}

// Run executes the sweep.
func Run(opt Options) (*Results, error) {
	return RunContext(context.Background(), opt)
}

// RunContext executes the sweep grid (Options.Specs) through RunSpecs.
func RunContext(ctx context.Context, opt Options) (*Results, error) {
	opt = opt.Normalized()
	return RunSpecs(ctx, opt, opt.Specs())
}

// RunSpecs runs the cells a Request resolved to — a grid or a
// design-space study — into results keyed by RunSpec.Key: the
// representative (RunSpec.Representative) of every group of cells that
// share one runs through one Executor on a fixed-size worker pool, and
// every cell of the group shares its result. A cell's labels are its
// key, never the result's Variant and Model. A representative runs once,
// under the zero RunPolicy: the simulation is deterministic, so a retry
// would fail the same way. No new simulation starts once ctx is cancelled
// or any run fails. A sampled cell runs its representative intervals in
// series, so a sampled sweep, like a detailed one, parallelises across
// cells. With functional warmup every cell of a workload, ablated or not,
// restores one checkpoint: ablations alter only speculative execution,
// which functional warmup has none of.
func RunSpecs(ctx context.Context, opt Options, specs []RunSpec) (*Results, error) {
	if opt.Observer != nil && len(specs) != 1 {
		return nil, fmt.Errorf("harness: an observer records one cell, not %d", len(specs))
	}
	opt = opt.Normalized()
	res := &Results{Opt: opt, Runs: make(map[Key]*core.Result, len(specs))}
	var mu sync.Mutex
	e := &Executor{Observer: opt.Observer}
	if opt.SimMode == SimSampled {
		res.SamplePlans = make(map[string]*simpoint.Plan)
		e.PlanBuilt = func(wl string, sp *SamplePlan) {
			mu.Lock()
			defer mu.Unlock()
			res.SamplePlans[wl] = sp.Plan
		}
	}
	groups := groupByRepresentative(specs)
	err := RunPool(ctx, opt.Workers(), len(groups), func(ctx context.Context, i int) error {
		g := groups[i]
		r, _, err := e.Run(ctx, g[0].Representative(), RunPolicy{})
		if err != nil {
			return fmt.Errorf("harness: %v: %w", g[0].Key(), err)
		}
		mu.Lock()
		defer mu.Unlock()
		res.SharedCells += len(g) - 1
		for _, s := range g {
			res.Runs[s.Key()] = &r
			if opt.Progress != nil {
				opt.Progress(FormatProgress(s.Key(), r))
			}
		}
		return nil
	})
	res.WarmupInstrsSimulated = e.WarmupInstrs.Load()
	res.CheckpointsCaptured = int(e.CheckpointsCaptured.Load())
	res.ProfiledInstrs = e.ProfiledInstrs.Load()
	res.DetailedInstrsSimulated = e.SampledInstrs.Load()
	return res, err
}

// Only returns r with just the runs of specs — the grid's view of a run
// that also served a design-space study (GridAndStudySpecs). It shares
// r's runs, and its counters are r's, those of the whole run.
func (r *Results) Only(specs []RunSpec) *Results {
	out := *r
	out.Runs = make(map[Key]*core.Result, len(specs))
	for _, s := range specs {
		if run, ok := r.Runs[s.Key()]; ok {
			out.Runs[s.Key()] = run
		}
	}
	return &out
}

// groupByRepresentative partitions specs, in order, into groups of cells
// with a common representative (RunSpec.Representative), which are the
// groups of a common CacheKey: one simulation answers a whole group.
func groupByRepresentative(specs []RunSpec) [][]RunSpec {
	var groups [][]RunSpec
	at := make(map[RunSpec]int)
	for _, s := range specs {
		rep := s.Representative()
		if i, ok := at[rep]; ok {
			groups[i] = append(groups[i], s)
			continue
		}
		at[rep] = len(groups)
		groups = append(groups, []RunSpec{s})
	}
	return groups
}

// runIndex is the one view the aggregates read runs through: every
// run's key in export order, the runs read in place (Results.Runs, never
// copied), each (variant, model) row of the grid gathered once, and each
// row's average computed once. Export, AblationTables and each text
// report build one. Its methods are the one copy of the paper's
// aggregate formulas.
type runIndex struct {
	wls  []string             // the sweep's workloads, in suite order
	keys []Key                // every run's key, in exportOrder
	at   map[Key]*core.Result // Results.Runs
	rows map[variantModel][]*core.Result
	avg  map[variantModel]float64
}

type variantModel struct {
	v core.Variant
	m pipeline.AttackModel
}

// exportOrder orders runs by workload name, then attack model, then
// variant: the export's run order.
func exportOrder(a, b Key) int {
	if a.Workload != b.Workload {
		return strings.Compare(a.Workload, b.Workload)
	}
	if a.Model != b.Model {
		return cmp.Compare(a.Model, b.Model)
	}
	return cmp.Compare(a.Variant, b.Variant)
}

// index builds r's runIndex.
func (r *Results) index() *runIndex {
	ix := &runIndex{
		wls:  make([]string, 0, len(r.Opt.Workloads)),
		keys: make([]Key, 0, len(r.Runs)),
		at:   r.Runs,
		rows: make(map[variantModel][]*core.Result),
		avg:  make(map[variantModel]float64),
	}
	for _, wl := range r.Opt.Workloads {
		ix.wls = append(ix.wls, wl.Name)
	}
	for k := range r.Runs {
		ix.keys = append(ix.keys, k)
	}
	slices.SortFunc(ix.keys, exportOrder)
	return ix
}

// run returns the grid's run of wl under (v, m), or nil.
func (ix *runIndex) run(wl string, v core.Variant, m pipeline.AttackModel) *core.Result {
	return ix.at[Key{Workload: wl, Variant: v, Model: m}]
}

// row returns the grid's runs under (v, m), one per workload of ix.wls,
// nil where the sweep has none.
func (ix *runIndex) row(v core.Variant, m pipeline.AttackModel) []*core.Result {
	vm := variantModel{v, m}
	row, ok := ix.rows[vm]
	if !ok {
		row = make([]*core.Result, len(ix.wls))
		for i, wl := range ix.wls {
			row[i] = ix.run(wl, v, m)
		}
		ix.rows[vm] = row
	}
	return row
}

// normRatio is run's execution time normalized to base's, or 0 when
// either is missing or base ran no cycles.
func normRatio(run, base *core.Result) float64 {
	if run == nil || base == nil || base.Cycles == 0 {
		return 0
	}
	return float64(run.Cycles) / float64(base.Cycles)
}

// normTime returns the run's execution time normalized to the Unsafe run
// of the same workload/model (Figure 6's metric).
func (ix *runIndex) normTime(wl string, v core.Variant, m pipeline.AttackModel) float64 {
	return normRatio(ix.run(wl, v, m), ix.run(wl, core.Unsafe, m))
}

// avgNormTime averages normTime over all workloads (the "Avg" bars of
// Figure 6).
func (ix *runIndex) avgNormTime(v core.Variant, m pipeline.AttackModel) float64 {
	if avg, ok := ix.avg[variantModel{v, m}]; ok {
		return avg
	}
	var sum float64
	var n int
	base := ix.row(core.Unsafe, m)
	for i, run := range ix.row(v, m) {
		if t := normRatio(run, base[i]); t > 0 {
			sum += t
			n++
		}
	}
	var avg float64
	if n > 0 {
		avg = sum / float64(n)
	}
	ix.avg[variantModel{v, m}] = avg
	return avg
}

// avgOverheadPct is the average overhead vs Unsafe, in percent.
func (ix *runIndex) avgOverheadPct(v core.Variant, m pipeline.AttackModel) float64 {
	return (ix.avgNormTime(v, m) - 1) * 100
}

// improvementPct returns how much variant v improves on baseline b, as the
// paper reports it: the fraction of the baseline's overhead eliminated.
func (ix *runIndex) improvementPct(v, b core.Variant, m pipeline.AttackModel) float64 {
	ob := ix.avgOverheadPct(b, m)
	ov := ix.avgOverheadPct(v, m)
	if ob <= 0 {
		return 0
	}
	return (ob - ov) / ob * 100
}

// predictorQuality aggregates Table III for one variant/model: precision =
// precise / all, accuracy = (precise + imprecise) / all, over all resolved
// Obl-Lds in the sweep.
func (ix *runIndex) predictorQuality(v core.Variant, m pipeline.AttackModel) (precision, accuracy float64) {
	var precise, imprecise, inaccurate uint64
	for _, run := range ix.row(v, m) {
		if run != nil {
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

// squashesPerKInstr averages total squashes per 1000 committed
// instructions (Figure 8's x-axis).
func (ix *runIndex) squashesPerKInstr(v core.Variant, m pipeline.AttackModel) float64 {
	var squashes, instrs uint64
	for _, run := range ix.row(v, m) {
		if run != nil {
			squashes += run.TotalSquashes()
			instrs += run.Committed
		}
	}
	if instrs == 0 {
		return 0
	}
	return float64(squashes) / float64(instrs) * 1000
}

// breakdown is Figure 7's decomposition of one SDO variant's slowdown.
// Components are percentages of execution time added over Unsafe,
// averaged across workloads.
type breakdown struct {
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

// breakdownFor computes the Figure 7 attribution for one variant/model.
// ImprecisionCycles and ValidationStall are measured exactly; squash costs
// are counted as squashed-instruction refill estimates; the remainder of
// the measured slowdown is "other".
func (ix *runIndex) breakdownFor(v core.Variant, m pipeline.AttackModel) breakdown {
	b := breakdown{Variant: v, Model: m}
	var over, inacc, imprec, val, tlb float64
	var n int
	bases := ix.row(core.Unsafe, m)
	for i, run := range ix.row(v, m) {
		base := bases[i]
		if base == nil || run == nil || base.Cycles == 0 {
			continue
		}
		n++
		slow := float64(run.Cycles) - float64(base.Cycles)
		if slow < 0 {
			slow = 0
		}
		ci := float64(run.SquashesFor("obl-fail")) * squashRefillCost
		ct := float64(run.SquashesFor("tlb")) * squashRefillCost
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
// variations of it, as AblationSpecs enumerates and AblationTables
// aggregates them.
func AblationRows() []AblationRow {
	return []AblationRow{
		{Name: "STT+SDO (paper)"},
		{Name: "no early forwarding", Ablate: core.Ablation{DisableEarlyForward: true}},
		{Name: "no exposures (always validate)", Ablate: core.Ablation{AlwaysValidate: true}},
		{Name: "no implicit-channel protection (INSECURE)", Ablate: core.Ablation{NoImplicitChannelProtection: true}},
		{Name: "with DO DRAM variant", Ablate: core.Ablation{OblDRAMVariant: true}},
	}
}

// ablationName names an ablation by its AblationRows row.
func ablationName(a core.Ablation) string {
	for _, row := range AblationRows() {
		if row.Ablate == a {
			return row.Name
		}
	}
	return fmt.Sprintf("%+v", a)
}

// AblationTables aggregates a design-space study (AblationSpecs) into one
// table per model of r.Opt: each row's NormTime is its Hybrid cycles over
// the workload's Unsafe baseline, averaged over the workloads. A workload
// with a missing cell or a zero baseline drops out of that model's table,
// so a table aggregates fully-measured workloads only.
func (r *Results) AblationTables() [][]AblationRow {
	ix := r.index()
	tables := make([][]AblationRow, len(r.Opt.Models))
	for mi, m := range r.Opt.Models {
		rows := AblationRows()
		sums := make([]float64, len(rows))
		n := 0
		bases := ix.row(core.Unsafe, m)
	workloads:
		for i, wl := range ix.wls {
			base := bases[i]
			if base == nil || base.Cycles == 0 {
				continue
			}
			norm := make([]float64, len(rows))
			for ri, row := range rows {
				run := ix.at[Key{Workload: wl, Variant: core.Hybrid, Model: m, Ablate: row.Ablate}]
				if run == nil {
					continue workloads
				}
				norm[ri] = normRatio(run, base)
			}
			for ri := range rows {
				sums[ri] += norm[ri]
			}
			n++
		}
		for ri := range rows {
			if n > 0 {
				rows[ri].NormTime = sums[ri] / float64(n)
			}
		}
		tables[mi] = rows
	}
	return tables
}
