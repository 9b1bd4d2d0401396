// Command experiments reproduces the paper's evaluation: it sweeps the
// Table II design variants over the workload suite under both attack
// models and regenerates every table and figure of §VIII. A request that
// resolves to one cell prints that cell's counters instead — the
// equivalent of a single gem5 run in the paper's methodology — and may
// record its event trace.
//
// Usage:
//
//	experiments                   # everything (Tables I-III, Figures 6-8, summary)
//	experiments -fig6             # just Figure 6
//	experiments -instrs 100000    # bigger measurement windows
//	experiments -export BENCH_sweep.json   # capture the JSON export (CI trajectories)
//	experiments -workloads mcf_r,gcc_r -serial -v
//	experiments -workloads mcf_r -variants hybrid -models futuristic   # one cell's counters
//	experiments -workloads mcf_r -variants hybrid -models spectre -trace trace.json -trace-format chrome
//	experiments -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command body, factored out of main so tests can drive it
// and capture its output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig6        = fs.Bool("fig6", false, "Figure 6: normalized execution time")
		fig7        = fs.Bool("fig7", false, "Figure 7: overhead breakdown")
		fig8        = fs.Bool("fig8", false, "Figure 8: squashes vs execution time")
		table1      = fs.Bool("table1", false, "Table I: simulated architecture")
		table2      = fs.Bool("table2", false, "Table II: design variants")
		table3      = fs.Bool("table3", false, "Table III: predictor precision/accuracy")
		summary     = fs.Bool("summary", false, "§VIII-B headline summary")
		asJSON      = fs.Bool("json", false, "emit the sweep as JSON instead of text reports")
		export      = fs.String("export", "", "also write the sweep's JSON export to this file")
		serial      = fs.Bool("serial", false, "disable parallel simulation")
		verbose     = fs.Bool("v", false, "print per-run progress")
		list        = fs.Bool("list", false, "list workloads and variants, then exit")
		tracePath   = fs.String("trace", "", "one-cell runs: write a cycle-by-cycle event trace to this file ('-' for stderr)")
		traceFormat = fs.String("trace-format", "text",
			"trace sink: text (line format), jsonl (one event per line), chrome (trace-event JSON, loadable in Perfetto / chrome://tracing)")
		traceEvents = fs.String("trace-events", "all",
			"comma-separated event classes to record: "+strings.Join(obs.ClassNames(), ",")+" (or 'all')")
		postmortem = fs.Int("postmortem", 0,
			"one-cell runs: keep the last N events in a ring buffer and dump them to stderr if the run fails")
	)
	request := harness.RequestFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, "Workloads:")
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "  %-14s %s\n", w.Name, w.Desc)
		}
		fmt.Fprintln(stdout, "\nVariants (Table II):")
		harness.WriteTableII(stdout)
		return 0
	}
	req := request()
	grid := *fig6 || *fig7 || *fig8 || *table3 || *summary
	static := *table1 || *table2
	all := !grid && !static && !req.Ablations
	// Tables I and II need no simulation.
	if *table1 {
		harness.WriteTableI(stdout)
		fmt.Fprintln(stdout)
	}
	if *table2 {
		harness.WriteTableII(stdout)
		fmt.Fprintln(stdout)
	}
	if static && !grid && !req.Ablations {
		return 0 // only static tables were requested
	}

	opt, specs, err := req.Resolve()
	if err != nil {
		return fail(err)
	}
	opt.Parallel = !*serial
	if *verbose {
		opt.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	}
	oneCell := len(specs) == 1
	traced := *tracePath != "" || *postmortem > 0
	if traced && (!oneCell || opt.SimMode == harness.SimSampled) {
		return fail(errors.New("-trace and -postmortem record one detailed cell: name one workload, variant and model, and use -sim-mode detailed"))
	}
	rec, ring, closeTrace, err := recorder(*tracePath, *traceFormat, *traceEvents, *postmortem, stderr)
	if err != nil {
		return fail(err)
	}
	opt.Observer = rec

	// With -ablate and a grid report, the study and the grid run as one
	// spec list, so the cells both name simulate once.
	if req.Ablations && grid {
		specs = opt.GridAndStudySpecs()
	}
	res, err := harness.RunSpecs(context.Background(), opt, specs)
	// Close the recorder before reporting: the Chrome sink writes its JSON
	// trailer here, and buffered sinks flush.
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		if ring != nil {
			fmt.Fprintf(stderr, "experiments: last %d events before failure:\n", len(ring.Events()))
			ring.WriteText(stderr)
		}
		return fail(err)
	}
	if req.Ablations {
		harness.WriteAblations(stdout, res.AblationExport())
		if !grid {
			return 0
		}
		res = res.Only(opt.Specs())
	}
	// Stderr so the counters never perturb the JSON/report outputs.
	fmt.Fprintf(stderr, "experiments: warmup-instrs-simulated=%d checkpoints-captured=%d cells-shared=%d\n",
		res.WarmupInstrsSimulated, res.CheckpointsCaptured, res.SharedCells)
	if res.SamplePlans != nil {
		// Stderr for the same byte-identical-export reason. The headline:
		// how many detailed instructions sampling actually executed vs. the
		// full-window grid it stands in for.
		full := uint64(len(res.Opt.Cells())) * res.Opt.MaxInstrs
		fmt.Fprintf(stderr, "experiments: sim-mode=sampled detailed-instrs=%d full-grid-instrs=%d (%.1f%%) profiled-instrs=%d\n",
			res.DetailedInstrsSimulated, full,
			100*float64(res.DetailedInstrsSimulated)/float64(full), res.ProfiledInstrs)
		for _, wl := range res.Opt.Workloads {
			if p := res.SamplePlans[wl.Name]; p != nil {
				fmt.Fprintf(stderr, "experiments: plan %-14s k=%d/%d intervals sampled=%d/%d instrs err-est=%.3f\n",
					wl.Name, p.K, p.NumIntervals, p.SampledInstrs(), p.WindowInstrs, p.ErrEstimate)
			}
		}
	}

	// Every report formats the one export.
	ex := res.Export()
	if *export != "" || *asJSON {
		doc, err := harness.IndentedJSON(ex)
		if err == nil && *export != "" {
			err = os.WriteFile(*export, doc, 0o666)
		}
		if err != nil {
			return fail(fmt.Errorf("export: %w", err))
		}
		if *asJSON {
			if _, err := stdout.Write(doc); err != nil {
				return fail(err)
			}
			return 0
		}
	}

	switch {
	case oneCell:
		writeCell(stdout, res, specs[0])
	case all:
		ex.WriteAll(stdout, res.Opt.Workloads)
	default:
		if *fig6 {
			ex.WriteFigure6(stdout, res.Opt.Workloads)
		}
		if *fig7 {
			ex.WriteFigure7(stdout)
			fmt.Fprintln(stdout)
		}
		if *fig8 {
			ex.WriteFigure8(stdout)
			fmt.Fprintln(stdout)
		}
		if *table3 {
			ex.WriteTableIII(stdout)
			fmt.Fprintln(stdout)
		}
		if *summary {
			ex.WriteSummary(stdout)
		}
	}
	return 0
}

// recorder builds the event recorder the trace flags ask for — nil when
// neither -trace nor -postmortem is given — and the function that closes
// it and its file.
func recorder(path, format, classes string, postmortem int, stderr io.Writer) (*obs.Recorder, *obs.RingSink, func() error, error) {
	noop := func() error { return nil }
	mask, err := obs.ParseClasses(classes)
	if err != nil {
		return nil, nil, noop, err
	}
	var sinks []obs.Sink
	closeFile := noop
	if path != "" {
		var newSink func(io.Writer) obs.Sink
		switch format {
		case "text":
			newSink = func(w io.Writer) obs.Sink { return obs.NewTextSink(w) }
		case "jsonl":
			newSink = func(w io.Writer) obs.Sink { return obs.NewJSONLSink(w) }
		case "chrome":
			newSink = func(w io.Writer) obs.Sink { return obs.NewChromeSink(w) }
		default:
			return nil, nil, noop, fmt.Errorf("unknown -trace-format %q (want text, jsonl or chrome)", format)
		}
		w := stderr
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				return nil, nil, noop, err
			}
			w, closeFile = f, f.Close
		}
		sinks = append(sinks, newSink(w))
	}
	var ring *obs.RingSink
	if postmortem > 0 {
		ring = obs.NewRingSink(postmortem)
		sinks = append(sinks, ring)
	}
	if len(sinks) == 0 {
		return nil, nil, noop, nil
	}
	rec := obs.NewRecorder(mask, sinks...)
	return rec, ring, func() error {
		err := rec.Close()
		if cerr := closeFile(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// writeCell prints one cell's counters; a sampled cell's are the
// reconstructed whole-window estimates.
func writeCell(w io.Writer, res *harness.Results, s harness.RunSpec) {
	r := res.Runs[s.Key()]
	if p := res.SamplePlans[s.Workload]; p != nil {
		fmt.Fprintf(w, "%s on %s (%s model), sampled: %d intervals × %d instrs → k=%d representatives, estimated counters\n\n",
			s.Variant, s.Workload, s.Model, p.NumIntervals, p.IntervalInstrs, p.K)
	} else {
		fmt.Fprintf(w, "%s on %s (%s model), %d measured instructions\n\n", s.Variant, s.Workload, s.Model, r.Committed)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	row := func(k string, val any) { fmt.Fprintf(tw, "%s\t%v\t\n", k, val) }
	pair := func(a, b uint64) string { return fmt.Sprintf("%d / %d", a, b) }
	row("cycles", r.Cycles)
	row("IPC", fmt.Sprintf("%.3f", r.IPC()))
	row("loads", r.Loads)
	row("stores", r.Stores)
	row("branch mispredicts", r.BranchMispredicts)
	row("squashes (total)", r.TotalSquashes())
	byCause := r.SquashesByCause()
	var causes []string
	for cause, n := range byCause {
		if n > 0 {
			causes = append(causes, cause)
		}
	}
	slices.Sort(causes) // a map: sorted, so the table is deterministic
	for _, cause := range causes {
		row("  "+cause, byCause[cause])
	}
	row("STT delayed loads", r.DelayedLoads)
	row("STT load delay cycles", r.LoadDelayCycles)
	row("STT delayed FP ops", r.DelayedFPs)
	row("delayed branch resolutions", r.DelayedResolutions)
	row("Obl-Ld issued", r.OblIssued)
	row("Obl-Ld success / fail", pair(r.OblSuccess, r.OblFail))
	row("Obl-Ld predicted-DRAM delays", r.OblPredMem)
	row("validations / exposures", pair(r.Validations, r.Exposures))
	row("validation commit stalls", r.ValidationStall)
	row("SDO FP issued / failed", pair(r.FPSDOIssued, r.FPSDOFail))
	row("prediction precise/imprecise/inaccurate",
		fmt.Sprintf("%d / %d / %d", r.PredPrecise, r.PredImprecise, r.PredInaccurate))
	row("L1D hits/misses", pair(r.L1DHits, r.L1DMisses))
	row("L2 hits/misses", pair(r.L2Hits, r.L2Misses))
	row("DRAM row hits/misses", pair(r.DRAMRowHits, r.DRAMRowMisses))
	tw.Flush()
}
