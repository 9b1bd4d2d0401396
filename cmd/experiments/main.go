// Command experiments reproduces the paper's evaluation: it sweeps the
// Table II design variants over the workload suite under both attack
// models and regenerates every table and figure of §VIII.
//
// Usage:
//
//	experiments                   # everything (Tables I-III, Figures 6-8, summary)
//	experiments -fig6             # just Figure 6
//	experiments -instrs 100000    # bigger measurement windows
//	experiments -export BENCH_sweep.json   # capture the JSON export (CI trajectories)
//	experiments -workloads mcf_r,gcc_r -serial -v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/simpoint"
)

func main() {
	var (
		fig6           = flag.Bool("fig6", false, "Figure 6: normalized execution time")
		fig7           = flag.Bool("fig7", false, "Figure 7: overhead breakdown")
		fig8           = flag.Bool("fig8", false, "Figure 8: squashes vs execution time")
		table1         = flag.Bool("table1", false, "Table I: simulated architecture")
		table2         = flag.Bool("table2", false, "Table II: design variants")
		table3         = flag.Bool("table3", false, "Table III: predictor precision/accuracy")
		summary        = flag.Bool("summary", false, "§VIII-B headline summary")
		ablate         = flag.Bool("ablate", false, "design-space ablations of individual SDO mechanisms")
		asJSON         = flag.Bool("json", false, "emit the sweep as JSON instead of text reports")
		export         = flag.String("export", "", "also write the sweep's JSON export to this file")
		instrs         = flag.Uint64("instrs", 60_000, "measured instructions per run")
		warmup         = flag.Uint64("warmup", 50_000, "warmup instructions per run")
		wmode          = flag.String("warmup-mode", "detailed", "warmup mode: detailed (per-cell pipeline warmup) or functional (emulator warmup with per-workload checkpoints)")
		simMode        = flag.String("sim-mode", "detailed", "simulation mode: detailed (cycle-accurate whole window) or sampled (SimPoint-style BBV clustering, representative intervals only)")
		sampleInterval = flag.Uint64("sample-interval", 0, "sampled mode: interval length in committed instructions (0: per-workload tuned default)")
		sampleMaxK     = flag.Int("sample-max-k", 0, "sampled mode: maximum clusters/representatives per workload (0: per-workload tuned default)")
		sampleSeed     = flag.Uint64("sample-seed", simpoint.DefaultSeed, "sampled mode: BBV projection / clustering seed")
		ivl            = flag.Uint64("interval", 0, "sample interval statistics every N cycles (included in -export/-json output)")
		wls            = flag.String("workloads", "", "comma-separated subset (default: all)")
		serial         = flag.Bool("serial", false, "disable parallel simulation")
		verbose        = flag.Bool("v", false, "print per-run progress")
	)
	flag.Parse()

	all := !*fig6 && !*fig7 && !*fig8 && !*table3 && !*summary && !*ablate
	// Tables I and II need no simulation.
	if *table1 {
		harness.WriteTableI(os.Stdout)
		fmt.Println()
	}
	if *table2 {
		harness.WriteTableII(os.Stdout)
		fmt.Println()
	}
	if !all && !*fig6 && !*fig7 && !*fig8 && !*table3 && !*summary && !*ablate {
		return // only static tables were requested
	}

	req := harness.Request{
		MaxInstrs:            *instrs,
		WarmupInstrs:         warmup,
		IntervalCycles:       *ivl,
		WarmupMode:           *wmode,
		SimMode:              *simMode,
		SampleIntervalInstrs: *sampleInterval,
		SampleMaxK:           *sampleMaxK,
		SampleSeed:           *sampleSeed,
		Ablations:            *ablate,
	}
	if *wls != "" {
		for _, name := range strings.Split(*wls, ",") {
			req.Workloads = append(req.Workloads, strings.TrimSpace(name))
		}
	}
	opt, specs, err := req.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	opt.Parallel = !*serial
	if *verbose {
		opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	// With -ablate and a grid report, the study and the grid run as one
	// spec list, so the cells both name simulate once.
	grid := all || *fig6 || *fig7 || *fig8 || *table3 || *summary
	if *ablate && grid {
		specs = opt.GridAndStudySpecs()
	}
	res, err := harness.RunSpecs(context.Background(), opt, specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *ablate {
		for mi, rows := range res.AblationTables() {
			harness.WriteAblations(os.Stdout, opt.Models[mi], rows)
			fmt.Println()
		}
		if !grid {
			return
		}
		res = res.Only(opt.Specs())
	}
	// Stderr so the counters never perturb the JSON/report outputs.
	fmt.Fprintf(os.Stderr, "experiments: warmup-instrs-simulated=%d checkpoints-captured=%d cells-shared=%d\n",
		res.WarmupInstrsSimulated, res.CheckpointsCaptured, res.SharedCells)
	if res.SamplePlans != nil {
		// Stderr for the same byte-identical-export reason. The headline:
		// how many detailed instructions sampling actually executed vs. the
		// full-window grid it stands in for.
		full := uint64(len(res.Opt.Cells())) * res.Opt.MaxInstrs
		fmt.Fprintf(os.Stderr, "experiments: sim-mode=sampled detailed-instrs=%d full-grid-instrs=%d (%.1f%%) profiled-instrs=%d\n",
			res.DetailedInstrsSimulated, full,
			100*float64(res.DetailedInstrsSimulated)/float64(full), res.ProfiledInstrs)
		for _, wl := range res.Opt.Workloads {
			if p := res.SamplePlans[wl.Name]; p != nil {
				fmt.Fprintf(os.Stderr, "experiments: plan %-14s k=%d/%d intervals sampled=%d/%d instrs err-est=%.3f\n",
					wl.Name, p.K, p.NumIntervals, p.SampledInstrs(), p.WindowInstrs, p.ErrEstimate)
			}
		}
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err == nil {
			err = res.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: export:", err)
			os.Exit(1)
		}
	}

	switch {
	case *asJSON:
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	case all:
		res.WriteAll(os.Stdout)
	default:
		if *fig6 {
			res.WriteFigure6(os.Stdout)
		}
		if *fig7 {
			res.WriteFigure7(os.Stdout)
			fmt.Println()
		}
		if *fig8 {
			res.WriteFigure8(os.Stdout)
			fmt.Println()
		}
		if *table3 {
			res.WriteTableIII(os.Stdout)
			fmt.Println()
		}
		if *summary {
			res.WriteSummary(os.Stdout)
		}
	}
}
