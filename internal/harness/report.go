package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pipeline"
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

// WriteFigure6 prints the normalized execution time of every variant on
// every workload, for both models (Figure 6).
func (r *Results) WriteFigure6(w io.Writer) {
	ix := r.index()
	for _, m := range r.Opt.Models {
		fmt.Fprintf(w, "FIGURE 6 (%s model): execution time normalized to Unsafe.\n", m)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "benchmark\t")
		for _, v := range r.Opt.Variants {
			fmt.Fprintf(tw, "%s\t", v)
		}
		fmt.Fprintln(tw)
		for _, wl := range ix.wls {
			fmt.Fprintf(tw, "%s\t", wl)
			for _, v := range r.Opt.Variants {
				fmt.Fprintf(tw, "%.3f\t", ix.normTime(wl, v, m))
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprintf(tw, "Avg\t")
		for _, v := range r.Opt.Variants {
			fmt.Fprintf(tw, "%.3f\t", ix.avgNormTime(v, m))
		}
		fmt.Fprintln(tw)
		tw.Flush()
		fmt.Fprintln(w)
	}
}

// WriteFigure7 prints the overhead breakdown per SDO variant (Figure 7).
func (r *Results) WriteFigure7(w io.Writer) {
	ix := r.index()
	fmt.Fprintln(w, "FIGURE 7: performance overhead breakdown (vs Unsafe), % of Unsafe execution time,")
	fmt.Fprintln(w, "averaged over the workload suite.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "variant\tmodel\ttotal%%\tinaccurate%%\timprecise%%\tvalidation%%\ttlb/vm%%\tother%%\t\n")
	for _, m := range r.Opt.Models {
		for _, v := range r.Opt.Variants {
			if !v.IsSDO() {
				continue
			}
			b := ix.breakdownFor(v, m)
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t\n",
				v, m, b.TotalPct, b.Inaccurate, b.Imprecise, b.Validation, b.TLB, b.Other)
		}
	}
	tw.Flush()
}

// WriteFigure8 prints squashes vs normalized execution time (Figure 8).
func (r *Results) WriteFigure8(w io.Writer) {
	ix := r.index()
	fmt.Fprintln(w, "FIGURE 8: squashes vs execution time (normalized to Unsafe), averaged over")
	fmt.Fprintln(w, "the workload suite. One point per SDO variant and model.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "model\tvariant\tsquashes/kinstr\tnorm. time\t\n")
	for _, m := range r.Opt.Models {
		for _, v := range r.Opt.Variants {
			if !v.IsSDO() && v != core.STTLd {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.3f\t\n",
				m, v, ix.squashesPerKInstr(v, m), ix.avgNormTime(v, m))
		}
	}
	tw.Flush()
}

// WriteTableIII prints predictor precision/accuracy (Table III).
func (r *Results) WriteTableIII(w io.Writer) {
	ix := r.index()
	fmt.Fprintln(w, "TABLE III: Precision and Accuracy of evaluated SDO predictors,")
	fmt.Fprintln(w, "averaged over the workload suite.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "configuration\t")
	for _, m := range r.Opt.Models {
		fmt.Fprintf(tw, "%s precision\t%s accuracy\t", m, m)
	}
	fmt.Fprintln(tw)
	for _, v := range r.Opt.Variants {
		if !v.IsSDO() || v == core.Perfect {
			continue
		}
		fmt.Fprintf(tw, "%s\t", v)
		for _, m := range r.Opt.Models {
			p, a := ix.predictorQuality(v, m)
			fmt.Fprintf(tw, "%.2f%%\t%.2f%%\t", p*100, a*100)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// WriteSummary prints the §VIII-B headline numbers: average overheads and
// the improvement of each SDO variant over the STT baselines.
func (r *Results) WriteSummary(w io.Writer) {
	ix := r.index()
	fmt.Fprintln(w, "SUMMARY (§VIII-B): average overhead vs Unsafe, and improvement relative to STT.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "model\tvariant\toverhead%%\tvs STT{ld}\tvs STT{ld+fp}\t\n")
	for _, m := range r.Opt.Models {
		for _, v := range r.Opt.Variants {
			if v == core.Unsafe {
				continue
			}
			line := fmt.Sprintf("%s\t%s\t%.2f\t", m, v, ix.avgOverheadPct(v, m))
			if v.IsSDO() {
				line += fmt.Sprintf("%.1f%%\t%.1f%%\t",
					ix.improvementPct(v, core.STTLd, m),
					ix.improvementPct(v, core.STTLdFp, m))
			} else {
				line += "-\t-\t"
			}
			fmt.Fprintln(tw, line)
		}
	}
	tw.Flush()
}

// WriteAll emits every table and figure.
func (r *Results) WriteAll(w io.Writer) {
	WriteTableI(w)
	fmt.Fprintln(w)
	WriteTableII(w)
	fmt.Fprintln(w)
	r.WriteFigure6(w)
	r.WriteFigure7(w)
	fmt.Fprintln(w)
	r.WriteFigure8(w)
	fmt.Fprintln(w)
	r.WriteTableIII(w)
	fmt.Fprintln(w)
	r.WriteSummary(w)
}

// WriteAblations prints the design-space study table.
func WriteAblations(w io.Writer, model pipeline.AttackModel, rows []AblationRow) {
	fmt.Fprintf(w, "ABLATIONS (%s model): STT+SDO with the Hybrid predictor, one mechanism changed.\n", model)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "configuration\tnorm. time\toverhead%%\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t\n", r.Name, r.NormTime, (r.NormTime-1)*100)
	}
	tw.Flush()
}
