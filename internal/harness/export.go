package harness

import (
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/obs/trace"
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

// Export builds the machine-readable summary. Every aggregate reads the
// runs through one runIndex, so no run is copied and each (variant,
// model) average is computed once.
func (r *Results) Export() Export {
	ix := r.index()
	ex := Export{MaxInstrs: r.Opt.MaxInstrs, WarmupInstrs: r.Opt.WarmupInstrs, IntervalCycles: r.Opt.IntervalCycles}
	ex.Runs = make([]ExportRun, 0, len(ix.keys))
	for _, k := range ix.keys {
		run := ix.at[k]
		ex.Runs = append(ex.Runs, ExportRun{
			Workload:        k.Workload,
			Variant:         k.Variant.String(),
			Model:           k.Model.String(),
			Cycles:          run.Cycles,
			Committed:       run.Committed,
			IPC:             run.IPC(),
			NormTime:        ix.normTime(k.Workload, k.Variant, k.Model),
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
		for _, v := range r.Opt.Variants {
			avg := ix.avgNormTime(v, m)
			ex.Figure6 = append(ex.Figure6, Fig6Row{m.String(), v.String(), avg})
			if v.IsSDO() {
				b := ix.breakdownFor(v, m)
				ex.Figure7 = append(ex.Figure7, Fig7Row{
					Model: m.String(), Variant: v.String(),
					TotalPct: b.TotalPct, Inaccurate: b.Inaccurate,
					Imprecise: b.Imprecise, Validation: b.Validation,
					TLB: b.TLB, Other: b.Other,
				})
				p, a := ix.predictorQuality(v, m)
				ex.TableIII = append(ex.TableIII, T3Row{m.String(), v.String(), p, a})
			}
			if v.IsSDO() || v == core.STTLd {
				ex.Figure8 = append(ex.Figure8, Fig8Row{m.String(), v.String(), ix.squashesPerKInstr(v, m), avg})
			}
			ex.Summary = append(ex.Summary, SumRow{
				Model: m.String(), Variant: v.String(),
				OverheadPct: ix.avgOverheadPct(v, m),
				VsSTTLd:     ix.improvementPct(v, core.STTLd, m),
				VsSTTLdFp:   ix.improvementPct(v, core.STTLdFp, m),
			})
		}
	}
	return ex
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
