package harness

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// Export is the machine-readable form of a sweep: everything the text
// reports print, as one JSON document (for plotting scripts and regression
// tooling).
type Export struct {
	MaxInstrs      uint64      `json:"max_instrs"`
	WarmupInstrs   uint64      `json:"warmup_instrs"`
	IntervalCycles uint64      `json:"interval_cycles,omitempty"`
	Runs           []ExportRun `json:"runs"`
	Figure6        []Fig6Row   `json:"figure6"`
	Figure7        []Fig7Row   `json:"figure7"`
	Figure8        []Fig8Row   `json:"figure8"`
	TableIII       []T3Row     `json:"table3"`
	Summary        []SumRow    `json:"summary"`
}

// ExportRun is one simulation's key counters.
type ExportRun struct {
	Workload        string  `json:"workload"`
	Variant         string  `json:"variant"`
	Model           string  `json:"model"`
	Cycles          uint64  `json:"cycles"`
	Committed       uint64  `json:"committed"`
	IPC             float64 `json:"ipc"`
	NormTime        float64 `json:"norm_time"`
	Squashes        uint64  `json:"squashes"`
	DelayedLoads    uint64  `json:"delayed_loads"`
	OblIssued       uint64  `json:"obl_issued"`
	OblFail         uint64  `json:"obl_fail"`
	Validations     uint64  `json:"validations"`
	Exposures       uint64  `json:"exposures"`
	PredPrecise     uint64  `json:"pred_precise"`
	PredImprecise   uint64  `json:"pred_imprecise"`
	PredInaccurate  uint64  `json:"pred_inaccurate"`
	ValidationStall uint64  `json:"validation_stall"`

	// Interval time series (present only when the sweep ran with
	// Options.IntervalCycles > 0).
	Intervals  []core.IntervalPoint `json:"intervals,omitempty"`
	ROBOccHist []uint64             `json:"rob_occ_hist,omitempty"`
	LQOccHist  []uint64             `json:"lq_occ_hist,omitempty"`

	// Attribution is the per-cell latency breakdown (present only when the
	// producing service ran with tracing enabled; see internal/obs/trace).
	Attribution *trace.Attribution `json:"attribution,omitempty"`
}

// Fig6Row is one Figure 6 series point (the per-variant average).
type Fig6Row struct {
	Model    string  `json:"model"`
	Variant  string  `json:"variant"`
	NormTime float64 `json:"norm_time"`
}

// Fig7Row is one Figure 7 breakdown row.
type Fig7Row struct {
	Model      string  `json:"model"`
	Variant    string  `json:"variant"`
	TotalPct   float64 `json:"total_pct"`
	Inaccurate float64 `json:"inaccurate_pct"`
	Imprecise  float64 `json:"imprecise_pct"`
	Validation float64 `json:"validation_pct"`
	TLB        float64 `json:"tlb_pct"`
	Other      float64 `json:"other_pct"`
}

// Fig8Row is one Figure 8 scatter point.
type Fig8Row struct {
	Model           string  `json:"model"`
	Variant         string  `json:"variant"`
	SquashesPerKIns float64 `json:"squashes_per_kinstr"`
	NormTime        float64 `json:"norm_time"`
}

// T3Row is one Table III row (per model).
type T3Row struct {
	Model     string  `json:"model"`
	Variant   string  `json:"variant"`
	Precision float64 `json:"precision"`
	Accuracy  float64 `json:"accuracy"`
}

// SumRow is one summary row.
type SumRow struct {
	Model       string  `json:"model"`
	Variant     string  `json:"variant"`
	OverheadPct float64 `json:"overhead_pct"`
	VsSTTLd     float64 `json:"improvement_vs_stt_ld_pct"`
	VsSTTLdFp   float64 `json:"improvement_vs_stt_ldfp_pct"`
}

// Export builds the machine-readable summary. It is the one place the
// paper's aggregates are computed: the text reports format its rows. It
// reads the runs in place (Results.Runs, never copied), and walks each
// model once, then each variant, over the row of runs the sweep's
// workloads gathered for it.
func (r *Results) Export() Export {
	keys := make([]Key, 0, len(r.Runs))
	for k := range r.Runs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, exportOrder)
	ex := Export{MaxInstrs: r.Opt.MaxInstrs, WarmupInstrs: r.Opt.WarmupInstrs, IntervalCycles: r.Opt.IntervalCycles}
	ex.Runs = make([]ExportRun, 0, len(keys))
	for _, k := range keys {
		run := r.Runs[k]
		ex.Runs = append(ex.Runs, ExportRun{
			Workload:        k.Workload,
			Variant:         k.Variant.String(),
			Model:           k.Model.String(),
			Cycles:          run.Cycles,
			Committed:       run.Committed,
			IPC:             run.IPC(),
			NormTime:        normRatio(run, r.Runs[Key{Workload: k.Workload, Variant: core.Unsafe, Model: k.Model}]),
			Squashes:        run.TotalSquashes(),
			DelayedLoads:    run.DelayedLoads,
			OblIssued:       run.OblIssued,
			OblFail:         run.OblFail,
			Validations:     run.Validations,
			Exposures:       run.Exposures,
			PredPrecise:     run.PredPrecise,
			PredImprecise:   run.PredImprecise,
			PredInaccurate:  run.PredInaccurate,
			ValidationStall: run.ValidationStall,
			Intervals:       run.Intervals,
			ROBOccHist:      run.ROBOccHist,
			LQOccHist:       run.LQOccHist,
			Attribution:     r.Attrib[k], // nil (omitted) when untraced
		})
	}
	for _, m := range r.Opt.Models {
		ms := m.String()
		base := r.row(Key{Variant: core.Unsafe, Model: m})
		sttLd := overheadPct(avgNormTime(r.row(Key{Variant: core.STTLd, Model: m}), base))
		sttLdFp := overheadPct(avgNormTime(r.row(Key{Variant: core.STTLdFp, Model: m}), base))
		for _, v := range r.Opt.Variants {
			vs := v.String()
			row := r.row(Key{Variant: v, Model: m})
			avg := avgNormTime(row, base)
			ex.Figure6 = append(ex.Figure6, Fig6Row{ms, vs, avg})
			if v.IsSDO() {
				ex.Figure7 = append(ex.Figure7, breakdown(ms, vs, row, base))
				ex.TableIII = append(ex.TableIII, predictorQuality(ms, vs, row))
			}
			if v.IsSDO() || v == core.STTLd {
				ex.Figure8 = append(ex.Figure8, Fig8Row{ms, vs, squashesPerKInstr(row), avg})
			}
			ov := overheadPct(avg)
			ex.Summary = append(ex.Summary, SumRow{ms, vs, ov, improvementPct(ov, sttLd), improvementPct(ov, sttLdFp)})
		}
	}
	return ex
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

// row gathers the runs of cell k on each workload of the sweep, in its
// order (k.Workload is ignored), nil where the sweep has none.
func (r *Results) row(k Key) []*core.Result {
	row := make([]*core.Result, len(r.Opt.Workloads))
	for i, wl := range r.Opt.Workloads {
		k.Workload = wl.Name
		row[i] = r.Runs[k]
	}
	return row
}

// The formulas below are the paper's aggregates, each over a row of runs
// and the row of its workloads' Unsafe baselines (base). Their sums run
// in workload order, and explicit float64 conversions keep a compiler
// from fusing a multiply into an add, so every architecture rounds as
// amd64 does.

// normRatio is run's execution time normalized to base's, or 0 when
// either is missing or base ran no cycles (Figure 6's per-workload
// metric).
func normRatio(run, base *core.Result) float64 {
	if run == nil || base == nil || base.Cycles == 0 {
		return 0
	}
	return float64(run.Cycles) / float64(base.Cycles)
}

// avgNormTime averages normRatio over the workloads both rows measured
// (the "Avg" bars of Figure 6).
func avgNormTime(row, base []*core.Result) float64 {
	var sum float64
	var n int
	for i, run := range row {
		if t := normRatio(run, base[i]); t > 0 {
			sum += t
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// overheadPct is the overhead over Unsafe, in percent, of an average
// normalized time.
func overheadPct(avgNorm float64) float64 {
	return float64((avgNorm - 1) * 100)
}

// improvementPct is how much an overhead ov improves on a baseline's
// overhead ob, as the paper reports it: the fraction of the baseline's
// overhead eliminated, in percent.
func improvementPct(ov, ob float64) float64 {
	if ob <= 0 {
		return 0
	}
	return (ob - ov) / ob * 100
}

// predictorQuality is Table III's row of one SDO variant: precision =
// precise / all, accuracy = (precise + imprecise) / all, over all the
// Obl-Lds its row of runs resolved.
func predictorQuality(model, variant string, row []*core.Result) T3Row {
	var precise, imprecise, inaccurate uint64
	for _, run := range row {
		if run != nil {
			precise += run.PredPrecise
			imprecise += run.PredImprecise
			inaccurate += run.PredInaccurate
		}
	}
	q := T3Row{Model: model, Variant: variant}
	if total := precise + imprecise + inaccurate; total > 0 {
		q.Precision = float64(precise) / float64(total)
		q.Accuracy = float64(precise+imprecise) / float64(total)
	}
	return q
}

// squashesPerKInstr is a row's total squashes per 1000 committed
// instructions (Figure 8's x-axis).
func squashesPerKInstr(row []*core.Result) float64 {
	var squashes, instrs uint64
	for _, run := range row {
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

// squashRefillCost approximates the pipeline refill penalty charged per
// squash when attributing slowdown (frontend redirect + re-dispatch).
const squashRefillCost = 16.0

// breakdown is Figure 7's decomposition of one SDO variant's slowdown
// over Unsafe: each component is a percentage of Unsafe's execution time,
// averaged over the workloads both rows measured. ImprecisionCycles and
// ValidationStall are measured exactly; squash costs are counted as
// squashed-instruction refill estimates; the remainder of the measured
// slowdown is "other".
func breakdown(model, variant string, row, base []*core.Result) Fig7Row {
	b := Fig7Row{Model: model, Variant: variant}
	var over, inacc, imprec, val, tlb float64
	var n int
	for i, run := range row {
		base := base[i]
		if base == nil || run == nil || base.Cycles == 0 {
			continue
		}
		n++
		slow := float64(run.Cycles) - float64(base.Cycles)
		if slow < 0 {
			slow = 0
		}
		ci := float64(float64(run.SquashesFor("obl-fail")) * squashRefillCost)
		ct := float64(float64(run.SquashesFor("tlb")) * squashRefillCost)
		cv := float64(run.ValidationStall)
		cp := float64(run.ImprecisionCycles)
		sum := ci + ct + cv + cp
		if sum > slow && sum > 0 {
			// The components overlap with latency hiding; scale to fit.
			f := slow / sum
			ci, ct, cv, cp = ci*f, ct*f, cv*f, cp*f
		}
		den := float64(base.Cycles)
		over += float64(slow / den * 100)
		inacc += float64(ci / den * 100)
		imprec += float64(cp / den * 100)
		val += float64(cv / den * 100)
		tlb += float64(ct / den * 100)
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

// AblationSection is one attack model's ablation table.
type AblationSection struct {
	Model string        `json:"model"`
	Rows  []AblationRow `json:"rows"`
}

// AblationExport is the machine-readable form of a design-space study
// (AblationSpecs): one table per model. The CLI's -ablate report prints
// it (WriteAblations) and the simulation service serves it.
type AblationExport struct {
	MaxInstrs    uint64            `json:"max_instrs"`
	WarmupInstrs uint64            `json:"warmup_instrs"`
	Sections     []AblationSection `json:"ablations"`
}

// AblationExport aggregates a design-space study into one table per
// model of r.Opt.
func (r *Results) AblationExport() AblationExport {
	ex := AblationExport{MaxInstrs: r.Opt.MaxInstrs, WarmupInstrs: r.Opt.WarmupInstrs}
	for _, m := range r.Opt.Models {
		ex.Sections = append(ex.Sections, AblationSection{Model: m.String(), Rows: r.ablationRows(m)})
	}
	return ex
}

// ablationRows computes model m's ablation table: each row's NormTime is
// its Hybrid cycles over the workload's Unsafe baseline, averaged over
// the workloads. A workload with a missing cell or a zero baseline drops
// out of the table, so it aggregates fully-measured workloads only.
func (r *Results) ablationRows(m pipeline.AttackModel) []AblationRow {
	rows := AblationRows()
	runs := make([][]*core.Result, len(rows))
	for ri, row := range rows {
		runs[ri] = r.row(Key{Variant: core.Hybrid, Model: m, Ablate: row.Ablate})
	}
	sums := make([]float64, len(rows))
	n := 0
	for i, base := range r.row(Key{Variant: core.Unsafe, Model: m}) {
		if base == nil || base.Cycles == 0 || slices.ContainsFunc(runs, func(row []*core.Result) bool { return row[i] == nil }) {
			continue
		}
		for ri, row := range runs {
			sums[ri] += normRatio(row[i], base)
		}
		n++
	}
	if n > 0 {
		for ri := range rows {
			rows[ri].NormTime = sums[ri] / float64(n)
		}
	}
	return rows
}

// WriteJSON emits the Export document.
func (r *Results) WriteJSON(w io.Writer) error {
	b, err := IndentedJSON(r.Export())
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// IndentedJSON renders v as a json.Encoder with SetIndent("", "  ")
// writes it — two spaces a level, empty objects and arrays kept as {}
// and [], a trailing newline — and fails where it fails. It is the one
// rendering of every JSON document the module writes: sweep exports,
// cache entry files, HTTP bodies. The value is marshalled compactly,
// then indented in one pass that trusts json.Marshal's output instead of
// re-validating it as the Encoder does.
func IndentedJSON(v any) ([]byte, error) {
	compact, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	// A flat document grows by about 40 % when indented; a deeper one
	// grows its buffer once more.
	return appendIndented(make([]byte, 0, len(compact)+len(compact)/2), compact), nil
}

// jsonPunct marks the bytes appendIndented stops at outside strings.
var jsonPunct = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true, ',': true, ':': true}

// appendIndented appends compact — valid JSON holding no whitespace
// outside its strings, as json.Marshal writes it — indented by two
// spaces a level, and a newline. The bytes between punctuation, strings
// whole, are copied in runs.
func appendIndented(dst, compact []byte) []byte {
	depth, run := 0, 0
	for i := 0; i < len(compact); i++ {
		c := compact[i]
		if !jsonPunct[c] {
			continue
		}
		if c == '"' {
			for i++; compact[i] != '"'; i++ {
				if compact[i] == '\\' {
					i++
				}
			}
			continue
		}
		dst = append(dst, compact[run:i]...)
		run = i + 1
		switch c {
		case '{', '[':
			if e := compact[i+1]; e == '}' || e == ']' {
				dst = append(dst, c, e)
				i++
				run++
				continue
			}
			depth++
			dst = newline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(newline(dst, depth), c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		}
	}
	dst = append(dst, compact[run:]...)
	return append(dst, '\n')
}

// newline starts a line indented depth levels.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
