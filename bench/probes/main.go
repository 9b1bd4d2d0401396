// Command probes times the public calls of each simulator layer from
// outside, single-goroutine, and prints the numbers with the span around
// every probe as one JSON document. It is the only part of the benchmark
// that imports the repository's packages: the end-to-end workloads drive
// the sdoserver binary over HTTP, so they keep building when a layer's Go
// API changes.
//
// Host time unless a metric says "sim": pipeline.sim_cycles.* are
// simulated cycles and repeat exactly.
package main

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/report"
	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sdo"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// schemes maps the metric-name slug of a protection scheme to its
// registered variant.
var schemes = []struct {
	slug string
	v    core.Variant
}{{"unsafe", core.Unsafe}, {"stt-ld", core.STTLd}, {"hybrid", core.Hybrid}}

type prober struct {
	rec     *report.Recorder
	metrics map[string]report.Value
	reps    int
	warmup  uint64
	window  uint64
}

func (p *prober) set(name string, v float64, unit string) {
	p.metrics[name] = report.Value{Value: v, Unit: unit}
}

// timed runs fn reps times inside one span and returns the median
// duration. setup (optional) runs before each repetition, untimed.
func (p *prober) timed(name string, reps int, setup, fn func()) time.Duration {
	sp := p.rec.Start(name, 0)
	defer p.rec.End(sp)
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		if setup != nil {
			setup()
		}
		rs := p.rec.Start(name+" rep", sp)
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0))
		p.rec.End(rs)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "probes:", err)
		os.Exit(1)
	}
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

func (p *prober) workloadAndArch() {
	all := workload.All()
	p.set("workload.build_ms", ms(p.timed("workload.Build", 5*p.reps, nil, func() {
		for _, wl := range all {
			wl.Build()
		}
	})), "ms")

	wl := must(workload.ByName("mcf_r"))
	prog, init := wl.Build()
	var memimg *isa.Memory
	var instrs uint64
	d := p.timed("arch.Exec", 5*p.reps, func() {
		memimg = isa.NewMemory()
		init(memimg)
	}, func() {
		r, _ := arch.Exec(prog, memimg, nil, p.warmup+p.window) // the budget ends the run, not a halt
		instrs = r.Instrs
	})
	p.set("arch.exec_mips", float64(instrs)/d.Seconds()/1e6, "Minstr/s")

	for _, name := range []string{"mcf_r", "deepsjeng_r"} {
		prog, init := must(workload.ByName(name)).Build()
		var ck *arch.Checkpoint
		d := p.timed("core.CaptureCheckpoint "+name, 3*p.reps, nil, func() {
			ck = core.CaptureCheckpoint(core.Config{WarmupInstrs: p.warmup}, prog, init)
		})
		p.set("arch.capture_ms."+name, ms(d), "ms")
		if name == "mcf_r" {
			var cw countWriter
			sp := p.rec.Start("Checkpoint.Encode", 0)
			check(ck.Encode(&cw))
			p.rec.End(sp)
			p.set("arch.checkpoint_mb", float64(cw.n)/1e6, "MB")
		}
	}
}

func (p *prober) predictors() {
	const n = 200_000
	bp := bpred.New(bpred.DefaultConfig())
	d := p.timed("bpred.PredictDirection+Update", 3*p.reps, nil, func() {
		for i := 0; i < n; i++ {
			pc := uint64(i%512) * 4
			taken, snap := bp.PredictDirection(pc)
			outcome := i%7 != 0
			bp.Update(pc, outcome, taken != outcome, snap)
		}
	})
	p.set("bpred.predict_update_ns", float64(d.Nanoseconds())/n, "ns")

	h := sdo.NewHybrid(512)
	levels := []mem.Level{mem.L1, mem.L1, mem.L1, mem.L2, mem.L1, mem.L3}
	d = p.timed("sdo.Hybrid.Predict+Update", 3*p.reps, nil, func() {
		for i := 0; i < n; i++ {
			pc := uint64(i % 64 * 8)
			h.Predict(pc, 0)
			h.Update(pc, levels[i%len(levels)])
		}
	})
	p.set("sdo.hybrid_predict_update_ns", float64(d.Nanoseconds())/n, "ns")
}

func (p *prober) memory() {
	const n = 200_000
	perOp := func(name string, ops int, setup func(), fn func()) float64 {
		return float64(p.timed(name, 3*p.reps, setup, fn).Nanoseconds()) / float64(ops)
	}
	var h *mem.Hierarchy
	fresh := func() { h = mem.NewHierarchy(mem.DefaultConfig()); h.Load(0, 0x1000) }

	p.set("mem.load_l1hit_ns", perOp("mem.Load l1hit", n, fresh, func() {
		for i := 0; i < n; i++ {
			h.Load(uint64(i)*10, 0x1000)
		}
	}), "ns")
	const lines = 8 << 20 / 64 // 64 B stride over 8 MB: every access misses to DRAM
	p.set("mem.load_miss_stream_ns", perOp("mem.Load miss stream", lines, fresh, func() {
		for i := 0; i < lines; i++ {
			h.Load(uint64(i)*200, 0x100_0000+uint64(i)*64)
		}
	}), "ns")
	for _, l := range []struct {
		name string
		lvl  mem.Level
	}{{"l1", mem.L1}, {"l3", mem.L3}} {
		p.set("mem.oblload_"+l.name+"_ns", perOp("mem.OblLoad "+l.name, n, fresh, func() {
			for i := 0; i < n; i++ {
				h.OblLoad(uint64(i)*50, 0x1000, l.lvl)
			}
		}), "ns")
	}
	// State round trip of a hierarchy warmed the way a checkpoint is.
	prog, init := must(workload.ByName("mcf_r")).Build()
	ck := core.CaptureCheckpoint(core.Config{WarmupInstrs: p.warmup}, prog, init)
	warm := mem.NewHierarchy(mem.DefaultConfig())
	check(warm.SetState(ck.Hier))
	dst := mem.NewHierarchy(mem.DefaultConfig())
	p.set("mem.state_roundtrip_ms", ms(p.timed("mem.State+SetState", 5*p.reps, nil, func() {
		check(dst.SetState(warm.State()))
	})), "ms")
}

// runWindow restores a functional checkpoint into a fresh machine and
// times only the detailed measurement window.
func (p *prober) runWindow(name string, v core.Variant, prog *isa.Program, init func(*isa.Memory), ck *arch.Checkpoint) (time.Duration, core.Result, runtime.MemStats, runtime.MemStats) {
	var m *core.Machine
	var res core.Result
	var before, after runtime.MemStats
	d := p.timed(name, p.reps, func() {
		m = core.NewMachine(core.Config{Variant: v, Model: pipeline.Futuristic,
			WarmupInstrs: p.warmup, WarmupMode: core.WarmupFunctional, MaxInstrs: p.window}, prog, init)
		check(m.Restore(ck))
		runtime.ReadMemStats(&before)
	}, func() {
		res = must(m.Run())
	})
	runtime.ReadMemStats(&after) // before was read just ahead of the last repetition: the pair brackets one Run
	return d, res, before, after
}

func (p *prober) pipeline(kernels []string, seed int64) {
	for _, k := range kernels {
		prog, init := must(workload.ByName(k)).Build()
		ck := core.CaptureCheckpoint(core.Config{WarmupInstrs: p.warmup}, prog, init)
		for _, s := range schemes {
			d, res, before, after := p.runWindow("Machine.Run "+k+" "+s.slug, s.v, prog, init, ck)
			id := k + "." + s.slug
			p.set("pipeline.ns_per_cycle."+id, float64(d.Nanoseconds())/float64(res.Cycles), "ns")
			p.set("pipeline.ns_per_instr."+id, float64(d.Nanoseconds())/float64(res.Committed), "ns")
			p.set("pipeline.sim_cycles."+id, float64(res.Cycles), "count")
			if s.v == core.Unsafe {
				p.set("pipeline.allocs_per_instr."+k, float64(after.Mallocs-before.Mallocs)/float64(res.Committed), "count")
				p.set("pipeline.bytes_per_instr."+k, float64(after.TotalAlloc-before.TotalAlloc)/float64(res.Committed), "B")
			}
		}
		if k == "deepsjeng_r" {
			for _, s := range []struct {
				slug string
				v    core.Variant
			}{{"safespec", core.SafeSpec}, {"specbox", core.SpecBox}} {
				d, res, _, _ := p.runWindow("Machine.Run "+k+" "+s.slug, s.v, prog, init, ck)
				p.set("pipeline.ns_per_instr."+k+"."+s.slug, float64(d.Nanoseconds())/float64(res.Committed), "ns")
			}
		}
		if k == "mcf_r" {
			var m *core.Machine
			cfg := core.Config{Variant: core.Hybrid, Model: pipeline.Futuristic,
				WarmupInstrs: p.warmup, WarmupMode: core.WarmupFunctional, MaxInstrs: p.window}
			p.set("core.new_machine_ms", ms(p.timed("core.NewMachine", 5*p.reps, nil, func() {
				m = core.NewMachine(cfg, prog, init)
			})), "ms")
			p.set("core.restore_ms", ms(p.timed("Machine.Restore", 5*p.reps, nil, func() {
				check(m.Restore(ck))
			})), "ms")
		}
	}
	// A seeded random program: code no kernel was tuned on.
	prog, init := workload.RandomProgram(rand.New(rand.NewSource(seed)), workload.DefaultRandomOptions())
	var m *core.Machine
	var res core.Result
	d := p.timed("Machine.Run random", 3*p.reps, func() {
		m = core.NewMachine(core.Config{Variant: core.Hybrid, Model: pipeline.Futuristic, MaxInstrs: p.window}, prog, init)
	}, func() {
		res = must(m.Run())
	})
	p.set("pipeline.ns_per_instr.random", float64(d.Nanoseconds())/float64(max(res.Committed, 1)), "ns")
}

func (p *prober) sampling(seed int64) {
	var mcfPlan *harness.SamplePlan
	for _, name := range []string{"mcf_r", "deepsjeng_r"} {
		wl := must(workload.ByName(name))
		cfg := harness.TunedSampleConfig(name, simpoint.Config{Seed: uint64(seed)})
		var sp *harness.SamplePlan
		d := p.timed("harness.BuildSamplePlan "+name, p.reps, nil, func() {
			sp = must(harness.BuildSamplePlan(wl, p.warmup, p.window, cfg))
		})
		p.set("simpoint.plan_ms."+name, ms(d), "ms")
		if name == "mcf_r" {
			mcfPlan = sp
			var cw countWriter
			check(gob.NewEncoder(&cw).Encode(sp))
			p.set("simpoint.plan_mb.mcf_r", float64(cw.n)/1e6, "MB")
		}
	}

	wl := must(workload.ByName("mcf_r"))
	params := harness.RunParams{WarmupInstrs: p.warmup, MaxInstrs: p.window}
	p.set("harness.detailed_cell_ms.mcf_r", ms(p.timed("harness.RunOne mcf_r", p.reps, nil, func() {
		must(harness.RunOne(wl, core.Hybrid, pipeline.Futuristic, core.Ablation{}, params))
	})), "ms")
	p.set("harness.sampled_cell_ms.mcf_r", ms(p.timed("harness.RunSampledCell mcf_r", p.reps, nil, func() {
		_, _, err := harness.RunSampledCell(context.Background(), 1, wl, core.Hybrid, pipeline.Futuristic,
			core.Ablation{}, mcfPlan, params, harness.RunPolicy{}, nil)
		check(err)
	})), "ms")
	p.set("harness.sampled_detail_frac", float64(mcfPlan.Plan.SampledInstrs())/float64(p.window), "ratio")
}

// export times rendering a finished sweep: a small-budget grid of the
// same shape (kernels × 8 variants × 2 models) is simulated once, then
// its Export + WriteJSON is timed.
func (p *prober) export(kernels []string) {
	opt := harness.DefaultOptions()
	opt.WarmupInstrs, opt.MaxInstrs = 2_000, 4_000
	opt.Workloads = nil
	for _, k := range kernels {
		opt.Workloads = append(opt.Workloads, must(workload.ByName(k)))
	}
	sp := p.rec.Start("harness.RunContext small grid", 0)
	res := must(harness.RunContext(context.Background(), opt))
	p.rec.End(sp)
	p.set("harness.export_ms", ms(p.timed("Results.WriteJSON", 5*p.reps, nil, func() {
		check(res.WriteJSON(io.Discard))
	})), "ms")
}

func main() {
	seed := flag.Int64("seed", 1, "seed of the random-program probe and the sampling plans")
	kernels := flag.String("kernels", "mcf_r,xalancbmk_r,x264_r,deepsjeng_r", "kernels of the pipeline probes")
	warmup := flag.Uint64("warmup", 50_000, "functional warm-up instructions before each timed window")
	window := flag.Uint64("instrs", 60_000, "instructions in each timed detailed window")
	reps := flag.Int("reps", 3, "repetitions of the slow probes (fast ones run a multiple); the median is reported")
	flag.Parse()

	p := &prober{rec: report.NewRecorder("probes"), metrics: map[string]report.Value{},
		reps: *reps, warmup: *warmup, window: *window}
	ks := strings.Split(*kernels, ",")
	p.workloadAndArch()
	p.predictors()
	p.memory()
	p.pipeline(ks, *seed)
	p.sampling(*seed)
	p.export(ks)

	out := report.Probes{EpochUnixUS: p.rec.EpochUnixUS(), Metrics: p.metrics, Spans: p.rec.Finish()}
	check(json.NewEncoder(os.Stdout).Encode(out))
}
