package harness

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// WriteTableI prints the simulated architecture parameters (Table I).
func WriteTableI(w io.Writer) {
	mc := mem.DefaultConfig()
	pc := pipeline.DefaultConfig()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TABLE I: Simulated architecture parameters.")
	fmt.Fprintf(tw, "Pipeline\t%d fetch/decode/issue/commit, %d/%d SQ/LQ entries, %d ROB, %d MSHRs, Tournament branch predictor\n",
		pc.Width, pc.SQSize, pc.LQSize, pc.ROBSize, mc.L1D.MSHRs)
	fmt.Fprintf(tw, "L1 I-Cache\t%dKB, %dB line, %d-way, %d-cycle latency\n",
		mc.L1I.SizeBytes>>10, mem.LineBytes, mc.L1I.Ways, mc.L1I.Latency)
	fmt.Fprintf(tw, "L1 D-Cache\t%dKB, %dB line, %d-way, %d-cycle latency\n",
		mc.L1D.SizeBytes>>10, mem.LineBytes, mc.L1D.Ways, mc.L1D.Latency)
	fmt.Fprintf(tw, "L2 Cache\t%dKB, %dB line, %d-way, %d-cycle latency\n",
		mc.L2.SizeBytes>>10, mem.LineBytes, mc.L2.Ways, mc.L2.Latency)
	fmt.Fprintf(tw, "L3 Cache\t%dMB, %dB line, %d-way, %d-cycle latency\n",
		mc.L3.SizeBytes>>20, mem.LineBytes, mc.L3.Ways, mc.L3.Latency)
	fmt.Fprintf(tw, "Coherence Protocol\tDirectory-based MESI protocol\n")
	fmt.Fprintf(tw, "DRAM\t%d-cycle row-miss latency after L3 (~50ns), %d banks, %dKB row buffers\n",
		mc.DRAM.RowMissLat, mc.DRAM.Banks, mc.DRAM.RowBytes>>10)
	tw.Flush()
}

// WriteTableII prints the evaluated design variants (Table II).
func WriteTableII(w io.Writer) {
	fmt.Fprintln(w, "TABLE II: Evaluated design variants.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Configuration\tDescription\n")
	for _, v := range core.Variants() {
		fmt.Fprintf(tw, "%s\t%s\n", v, v.Description())
	}
	tw.Flush()
}

// The reports below format an Export's rows; none computes an aggregate.
// The export's runs are sorted by name, so Figure 6, the one report with
// a row per workload, takes the sweep's workload order.

// models returns the export's attack models in sweep order. A table with
// a row per model and variant (Figure 6, Table III) lists the same
// variants for every model, models outermost, so a model's rows are one
// slice of it.
func (ex *Export) models() []string {
	var models []string
	for _, row := range ex.Figure6 {
		if !slices.Contains(models, row.Model) {
			models = append(models, row.Model)
		}
	}
	return models
}

// WriteFigure6 prints the normalized execution time of every variant on
// every workload of wls, in their order, for each model (Figure 6).
func (ex *Export) WriteFigure6(w io.Writer, wls []workload.Workload) {
	norm := make(map[[3]string]float64, len(ex.Runs))
	for _, run := range ex.Runs {
		norm[[3]string{run.Workload, run.Variant, run.Model}] = run.NormTime
	}
	models := ex.models()
	for mi, m := range models {
		nv := len(ex.Figure6) / len(models)
		rows := ex.Figure6[mi*nv : (mi+1)*nv]
		fmt.Fprintf(w, "FIGURE 6 (%s model): execution time normalized to Unsafe.\n", m)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "benchmark\t")
		for _, row := range rows {
			fmt.Fprintf(tw, "%s\t", row.Variant)
		}
		fmt.Fprintln(tw)
		for _, wl := range wls {
			fmt.Fprintf(tw, "%s\t", wl.Name)
			for _, row := range rows {
				fmt.Fprintf(tw, "%.3f\t", norm[[3]string{wl.Name, row.Variant, m}])
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprintf(tw, "Avg\t")
		for _, row := range rows {
			fmt.Fprintf(tw, "%.3f\t", row.NormTime)
		}
		fmt.Fprintln(tw)
		tw.Flush()
		fmt.Fprintln(w)
	}
}

// WriteFigure7 prints the overhead breakdown per SDO variant (Figure 7).
func (ex *Export) WriteFigure7(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 7: performance overhead breakdown (vs Unsafe), % of Unsafe execution time,")
	fmt.Fprintln(w, "averaged over the workload suite.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "variant\tmodel\ttotal%%\tinaccurate%%\timprecise%%\tvalidation%%\ttlb/vm%%\tother%%\t\n")
	for _, b := range ex.Figure7 {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t\n",
			b.Variant, b.Model, b.TotalPct, b.Inaccurate, b.Imprecise, b.Validation, b.TLB, b.Other)
	}
	tw.Flush()
}

// WriteFigure8 prints squashes vs normalized execution time (Figure 8).
func (ex *Export) WriteFigure8(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 8: squashes vs execution time (normalized to Unsafe), averaged over")
	fmt.Fprintln(w, "the workload suite. One point per SDO variant and model.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "model\tvariant\tsquashes/kinstr\tnorm. time\t\n")
	for _, p := range ex.Figure8 {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.3f\t\n", p.Model, p.Variant, p.SquashesPerKIns, p.NormTime)
	}
	tw.Flush()
}

// WriteTableIII prints predictor precision/accuracy (Table III): a row
// per SDO variant but the oracle, a column pair per model.
func (ex *Export) WriteTableIII(w io.Writer) {
	models := ex.models()
	nv := len(ex.TableIII) / max(len(models), 1)
	fmt.Fprintln(w, "TABLE III: Precision and Accuracy of evaluated SDO predictors,")
	fmt.Fprintln(w, "averaged over the workload suite.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "configuration\t")
	for _, m := range models {
		fmt.Fprintf(tw, "%s precision\t%s accuracy\t", m, m)
	}
	fmt.Fprintln(tw)
	for vi, row := range ex.TableIII[:nv] {
		if row.Variant == core.Perfect.String() {
			continue
		}
		fmt.Fprintf(tw, "%s\t", row.Variant)
		for mi := range models {
			q := ex.TableIII[mi*nv+vi]
			fmt.Fprintf(tw, "%.2f%%\t%.2f%%\t", q.Precision*100, q.Accuracy*100)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// WriteSummary prints the §VIII-B headline numbers: average overheads and
// the improvement of each SDO variant over the STT baselines.
func (ex *Export) WriteSummary(w io.Writer) {
	fmt.Fprintln(w, "SUMMARY (§VIII-B): average overhead vs Unsafe, and improvement relative to STT.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "model\tvariant\toverhead%%\tvs STT{ld}\tvs STT{ld+fp}\t\n")
	for _, row := range ex.Summary {
		if row.Variant == core.Unsafe.String() {
			continue
		}
		line := fmt.Sprintf("%s\t%s\t%.2f\t", row.Model, row.Variant, row.OverheadPct)
		if v, _ := core.ParseVariant(row.Variant); v.IsSDO() {
			line += fmt.Sprintf("%.1f%%\t%.1f%%\t", row.VsSTTLd, row.VsSTTLdFp)
		} else {
			line += "-\t-\t"
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
}

// WriteAll emits every table and figure; wls is the sweep's workload
// order (WriteFigure6).
func (ex *Export) WriteAll(w io.Writer, wls []workload.Workload) {
	WriteTableI(w)
	fmt.Fprintln(w)
	WriteTableII(w)
	fmt.Fprintln(w)
	ex.WriteFigure6(w, wls)
	ex.WriteFigure7(w)
	fmt.Fprintln(w)
	ex.WriteFigure8(w)
	fmt.Fprintln(w)
	ex.WriteTableIII(w)
	fmt.Fprintln(w)
	ex.WriteSummary(w)
}

// WriteAblations prints a design-space study, a table per model, each
// followed by a blank line.
func WriteAblations(w io.Writer, ex AblationExport) {
	for _, sec := range ex.Sections {
		fmt.Fprintf(w, "ABLATIONS (%s model): STT+SDO with the Hybrid predictor, one mechanism changed.\n", sec.Model)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "configuration\tnorm. time\toverhead%%\t\n")
		for _, r := range sec.Rows {
			fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t\n", r.Name, r.NormTime, overheadPct(r.NormTime))
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
}
