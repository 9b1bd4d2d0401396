// Command sdosim runs one benchmark on one simulated configuration and
// prints detailed statistics — the equivalent of a single gem5 run in the
// paper's methodology.
//
// Usage:
//
//	sdosim -workload mcf_r -variant hybrid -model futuristic -instrs 60000
//	sdosim -workload mcf_r -variant hybrid -trace trace.json -trace-format chrome
//	sdosim -workload mcf_r -trace - -trace-events sdo,squash
//	sdosim -workload mcf_r -interval 1000 -interval-out intervals.json
//	sdosim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

func main() {
	var (
		wlName      = flag.String("workload", "mcf_r", "workload name (see -list)")
		variant     = flag.String("variant", "unsafe", "design variant, any case: "+schemeNames())
		model       = flag.String("model", "spectre", "attack model: spectre or futuristic")
		instrs      = flag.Uint64("instrs", 60_000, "committed instructions to measure")
		warmup      = flag.Uint64("warmup", 50_000, "committed instructions of cache warmup")
		wmode       = flag.String("warmup-mode", "detailed", "warmup mode: detailed (on the pipeline) or functional (emulator fast-forward, exact handoff)")
		list        = flag.Bool("list", false, "list workloads and variants, then exit")
		trace       = flag.String("trace", "", "write a cycle-by-cycle event trace to this file ('-' for stderr)")
		traceFormat = flag.String("trace-format", "text",
			"trace sink: text (legacy line format), jsonl (one event per line), chrome (trace-event JSON, loadable in Perfetto / chrome://tracing)")
		traceEvents = flag.String("trace-events", "all",
			"comma-separated event classes to record: "+strings.Join(obs.ClassNames(), ",")+" (or 'all')")
		postmortem = flag.Int("postmortem", 0,
			"keep the last N events in a ring buffer and dump them to stderr if the run fails (works without -trace)")
		interval = flag.Uint64("interval", 0,
			"sample interval statistics every N cycles of the measurement window")
		intervalOut = flag.String("interval-out", "",
			"write the interval time series as JSON to this file ('-' for stdout; default with -interval: stdout)")
		simMode = flag.String("sim-mode", "detailed",
			"simulation mode: detailed (cycle-accurate whole window) or sampled (SimPoint-style: profile, cluster, simulate representatives, reconstruct)")
		sampleInterval = flag.Uint64("sample-interval", 0,
			"sampled mode: interval length in committed instructions (0: per-workload tuned default)")
		sampleMaxK = flag.Int("sample-max-k", 0,
			"sampled mode: maximum number of clusters/representatives (0: per-workload tuned default)")
		sampleSeed = flag.Uint64("sample-seed", simpoint.DefaultSeed,
			"sampled mode: seed for BBV projection and clustering")
	)
	flag.Parse()

	if *list {
		fmt.Println("Workloads:")
		for _, w := range workload.All() {
			fmt.Printf("  %-14s %s\n", w.Name, w.Desc)
		}
		fmt.Println("\nVariants (Table II):")
		harness.WriteTableII(os.Stdout)
		return
	}

	wl, err := workload.ByName(*wlName)
	if err != nil {
		fatal(err)
	}
	v, err := core.ParseVariant(strings.ToLower(*variant))
	if err != nil {
		fatal(err)
	}
	m, err := pipeline.ParseAttackModel(strings.ToLower(*model))
	if err != nil {
		fatal(err)
	}

	wm, err := core.ParseWarmupMode(*wmode)
	if err != nil {
		fatal(err)
	}

	mode, err := harness.ParseSimMode(*simMode)
	if err != nil {
		fatal(err)
	}
	if mode == harness.SimSampled {
		if *trace != "" {
			fatal(fmt.Errorf("-trace requires whole-window simulation; drop it or use -sim-mode detailed"))
		}
		runSampled(wl, v, m, *warmup, *instrs, *interval, *intervalOut, simpoint.Config{
			IntervalInstrs: *sampleInterval, MaxK: *sampleMaxK, Seed: *sampleSeed,
		})
		return
	}

	prog, init := wl.Build()
	machine := core.NewMachine(core.Config{
		Variant: v, Model: m, WarmupInstrs: *warmup, WarmupMode: wm, MaxInstrs: *instrs,
		IntervalCycles: *interval,
	}, prog, init)

	mask, err := obs.ParseClasses(*traceEvents)
	if err != nil {
		fatal(err)
	}
	var sinks []obs.Sink
	if *trace != "" {
		var w io.Writer = os.Stderr
		if *trace != "-" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		switch *traceFormat {
		case "text":
			sinks = append(sinks, obs.NewTextSink(w))
		case "jsonl":
			sinks = append(sinks, obs.NewJSONLSink(w))
		case "chrome":
			sinks = append(sinks, obs.NewChromeSink(w))
		default:
			fatal(fmt.Errorf("unknown -trace-format %q (want text, jsonl or chrome)", *traceFormat))
		}
	}
	var ring *obs.RingSink
	if *postmortem > 0 {
		ring = obs.NewRingSink(*postmortem)
		sinks = append(sinks, ring)
	}
	var rec *obs.Recorder
	if len(sinks) > 0 {
		rec = obs.NewRecorder(mask, sinks...)
		machine.SetObserver(rec)
	}

	res, err := machine.Run()
	// Close the recorder before any deferred file close: the Chrome sink
	// writes its JSON trailer here, and buffered sinks flush.
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if ring != nil {
			if evs := ring.Events(); len(evs) > 0 {
				fmt.Fprintf(os.Stderr, "sdosim: last %d events before failure:\n", len(evs))
				ring.WriteText(os.Stderr)
			}
		}
		fatal(err)
	}

	fmt.Printf("%s on %s (%s model), %d measured instructions\n\n",
		v, wl.Name, m, res.Committed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	row := func(k string, val any) { fmt.Fprintf(tw, "%s\t%v\t\n", k, val) }
	row("cycles", res.Cycles)
	row("IPC", fmt.Sprintf("%.3f", res.IPC()))
	row("loads", res.Loads)
	row("stores", res.Stores)
	row("branch mispredicts", res.BranchMispredicts)
	row("squashes (total)", res.TotalSquashes())
	for cause, n := range res.SquashesByCause() {
		if n > 0 {
			row("  "+cause, n)
		}
	}
	row("STT delayed loads", res.DelayedLoads)
	row("STT load delay cycles", res.LoadDelayCycles)
	row("STT delayed FP ops", res.DelayedFPs)
	row("delayed branch resolutions", res.DelayedResolutions)
	row("Obl-Ld issued", res.OblIssued)
	row("Obl-Ld success / fail", fmt.Sprintf("%d / %d", res.OblSuccess, res.OblFail))
	row("Obl-Ld predicted-DRAM delays", res.OblPredMem)
	row("validations / exposures", fmt.Sprintf("%d / %d", res.Validations, res.Exposures))
	row("validation commit stalls", res.ValidationStall)
	row("SDO FP issued / failed", fmt.Sprintf("%d / %d", res.FPSDOIssued, res.FPSDOFail))
	row("prediction precise/imprecise/inaccurate",
		fmt.Sprintf("%d / %d / %d", res.PredPrecise, res.PredImprecise, res.PredInaccurate))
	row("L1D hits/misses", fmt.Sprintf("%d / %d", res.L1DHits, res.L1DMisses))
	row("L2 hits/misses", fmt.Sprintf("%d / %d", res.L2Hits, res.L2Misses))
	row("DRAM row hits/misses", fmt.Sprintf("%d / %d", res.DRAMRowHits, res.DRAMRowMisses))
	tw.Flush()

	if *interval > 0 {
		var w io.Writer = os.Stdout
		if *intervalOut != "" && *intervalOut != "-" {
			f, err := os.Create(*intervalOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		} else {
			fmt.Printf("\ninterval series (every %d cycles, %d samples):\n", *interval, len(res.Intervals))
		}
		b, err := harness.IndentedJSON(struct {
			IntervalCycles uint64               `json:"interval_cycles"`
			Intervals      []core.IntervalPoint `json:"intervals"`
			ROBOccHist     []uint64             `json:"rob_occ_hist"`
			LQOccHist      []uint64             `json:"lq_occ_hist"`
		}{*interval, res.Intervals, res.ROBOccHist, res.LQOccHist})
		if err == nil {
			_, err = w.Write(b)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// runSampled executes one cell in SimPoint-sampled mode and prints the
// plan summary plus the reconstructed whole-window statistics. With
// interval > 0 each representative window carries its own time series,
// written with its reconstruction weight (there is no whole-window
// series to fake — the gaps between windows were never simulated).
func runSampled(wl workload.Workload, v core.Variant, m pipeline.AttackModel, warmup, instrs, interval uint64, intervalOut string, cfg simpoint.Config) {
	sp, err := harness.BuildSamplePlan(wl, warmup, instrs, harness.TunedSampleConfig(wl.Name, cfg))
	if err != nil {
		fatal(err)
	}
	res, _, err := harness.RunSampledCell(context.Background(), runtime.GOMAXPROCS(0),
		wl, v, m, core.Ablation{}, sp, harness.RunParams{IntervalCycles: interval},
		harness.RunPolicy{}, nil)
	if err != nil {
		fatal(err)
	}
	p := sp.Plan
	fmt.Printf("%s on %s (%s model), sampled: %d intervals × %d instrs → k=%d representatives\n",
		v, wl.Name, m, p.NumIntervals, p.IntervalInstrs, p.K)
	fmt.Printf("detailed instructions: %d of %d (%.1f%%), profiling cost %d functional instrs, error estimate %.3f\n\n",
		p.SampledInstrs(), p.WindowInstrs,
		100*float64(p.SampledInstrs())/float64(p.WindowInstrs), p.ProfiledInstrs, p.ErrEstimate)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	row := func(k string, val any) { fmt.Fprintf(tw, "%s\t%v\t\n", k, val) }
	row("est. cycles", res.Cycles)
	row("est. IPC", fmt.Sprintf("%.3f", res.IPC()))
	row("est. loads", res.Loads)
	row("est. stores", res.Stores)
	row("est. branch mispredicts", res.BranchMispredicts)
	row("est. squashes (total)", res.TotalSquashes())
	row("est. Obl-Ld issued", res.OblIssued)
	row("est. Obl-Ld success / fail", fmt.Sprintf("%d / %d", res.OblSuccess, res.OblFail))
	row("est. validations / exposures", fmt.Sprintf("%d / %d", res.Validations, res.Exposures))
	row("est. L1D hits/misses", fmt.Sprintf("%d / %d", res.L1DHits, res.L1DMisses))
	tw.Flush()

	if interval > 0 {
		var w io.Writer = os.Stdout
		if intervalOut != "" && intervalOut != "-" {
			f, err := os.Create(intervalOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		} else {
			fmt.Printf("\nsampled interval series (every %d cycles, %d windows):\n",
				interval, len(res.SampledWindows))
		}
		b, err := harness.IndentedJSON(struct {
			IntervalCycles uint64               `json:"interval_cycles"`
			SampledWindows []core.SampledWindow `json:"sampled_windows"`
		}{interval, res.SampledWindows})
		if err == nil {
			_, err = w.Write(b)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// schemeNames lists every registered scheme's name in lower case, which
// -variant accepts.
func schemeNames() string {
	var names []string
	for _, v := range core.Registered() {
		names = append(names, strings.ToLower(v.String()))
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdosim:", err)
	os.Exit(1)
}
