// Benchmarks regenerating each of the paper's tables and figures at a
// reduced, benchmark-friendly budget. Every BenchmarkFigure*/BenchmarkTable*
// reports the same series the paper plots as b.ReportMetric values, so
//
//	go test -bench=Figure6 -benchtime=1x
//
// prints one normalized-execution-time point per (model, variant) — the
// Figure 6 "Avg" bars. cmd/experiments produces the full-resolution
// versions; EXPERIMENTS.md records the paper-vs-measured comparison.
package repro

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sdo"
	"repro/internal/workload"
)

// benchWorkloads is the representative subset used by the figure
// benchmarks: the DRAM-heavy, the L2-table, and the stride-pattern
// kernels (the three behavioural classes of the suite).
var benchWorkloads = []string{"mcf_r", "xalancbmk_r", "x264_r"}

const (
	benchWarmup  = 20_000
	benchMeasure = 20_000
)

// benchRun simulates one configuration of one workload.
func benchRun(b *testing.B, name string, v core.Variant, m pipeline.AttackModel) core.Result {
	b.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, init := wl.Build()
	machine := core.NewMachine(core.Config{
		Variant: v, Model: m, WarmupInstrs: benchWarmup, MaxInstrs: benchMeasure,
	}, prog, init)
	res, err := machine.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// baselines caches Unsafe cycle counts per (workload, model) across
// benchmark invocations.
var (
	baselineMu sync.Mutex
	baselines  = map[string]uint64{}
)

func baselineCycles(b *testing.B, name string, m pipeline.AttackModel) uint64 {
	b.Helper()
	key := fmt.Sprintf("%s/%v", name, m)
	baselineMu.Lock()
	cached, ok := baselines[key]
	baselineMu.Unlock()
	if ok {
		return cached
	}
	c := benchRun(b, name, core.Unsafe, m).Cycles
	baselineMu.Lock()
	baselines[key] = c
	baselineMu.Unlock()
	return c
}

// avgNormTime runs the benchmark subset and averages normalized times.
func avgNormTime(b *testing.B, v core.Variant, m pipeline.AttackModel) (norm float64, agg core.Result) {
	b.Helper()
	var sum float64
	for _, name := range benchWorkloads {
		r := benchRun(b, name, v, m)
		sum += float64(r.Cycles) / float64(baselineCycles(b, name, m))
		agg.Stats.Committed += r.Committed
		agg.Stats.OblIssued += r.OblIssued
		agg.Stats.PredPrecise += r.PredPrecise
		agg.Stats.PredImprecise += r.PredImprecise
		agg.Stats.PredInaccurate += r.PredInaccurate
		agg.Stats.ValidationStall += r.ValidationStall
		agg.Stats.ImprecisionCycles += r.ImprecisionCycles
		for i, n := range r.Squashes {
			agg.Stats.Squashes[i] += n
		}
	}
	return sum / float64(len(benchWorkloads)), agg
}

// BenchmarkFigure6 reports the Figure 6 series: execution time normalized
// to Unsafe, per design variant, for both attack models.
func BenchmarkFigure6(b *testing.B) {
	for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		for _, v := range core.Variants() {
			b.Run(fmt.Sprintf("%v/%v", m, v), func(b *testing.B) {
				var norm float64
				for i := 0; i < b.N; i++ {
					norm, _ = avgNormTime(b, v, m)
				}
				b.ReportMetric(norm, "norm-time")
			})
		}
	}
}

// BenchmarkFigure7 reports the Figure 7 components for each SDO variant:
// measured imprecision and validation-stall cycles plus squash counts,
// normalized per 1000 committed instructions.
func BenchmarkFigure7(b *testing.B) {
	for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		for _, v := range core.SDOVariants() {
			b.Run(fmt.Sprintf("%v/%v", m, v), func(b *testing.B) {
				var agg core.Result
				for i := 0; i < b.N; i++ {
					_, agg = avgNormTime(b, v, m)
				}
				k := float64(agg.Committed) / 1000
				b.ReportMetric(float64(agg.Squashes[2])/k, "obl-fail-squash/kinstr") // inaccurate prediction
				b.ReportMetric(float64(agg.ImprecisionCycles)/k, "imprecise-cyc/kinstr")
				b.ReportMetric(float64(agg.ValidationStall)/k, "val-stall-cyc/kinstr")
				b.ReportMetric(float64(agg.Squashes[5])/k, "tlb-squash/kinstr")
			})
		}
	}
}

// BenchmarkFigure8 reports the Figure 8 scatter: squashes per 1000
// instructions against normalized execution time, per variant.
func BenchmarkFigure8(b *testing.B) {
	variants := append([]core.Variant{core.STTLd}, core.SDOVariants()...)
	for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("%v/%v", m, v), func(b *testing.B) {
				var norm float64
				var agg core.Result
				for i := 0; i < b.N; i++ {
					norm, agg = avgNormTime(b, v, m)
				}
				var squashes uint64
				for _, n := range agg.Squashes {
					squashes += n
				}
				b.ReportMetric(float64(squashes)/(float64(agg.Committed)/1000), "squashes/kinstr")
				b.ReportMetric(norm, "norm-time")
			})
		}
	}
}

// BenchmarkTable3 reports predictor precision and accuracy (Table III).
func BenchmarkTable3(b *testing.B) {
	for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		for _, v := range []core.Variant{core.StaticL1, core.StaticL2, core.StaticL3, core.Hybrid} {
			b.Run(fmt.Sprintf("%v/%v", m, v), func(b *testing.B) {
				var agg core.Result
				for i := 0; i < b.N; i++ {
					_, agg = avgNormTime(b, v, m)
				}
				total := agg.PredPrecise + agg.PredImprecise + agg.PredInaccurate
				if total > 0 {
					b.ReportMetric(float64(agg.PredPrecise)/float64(total)*100, "precision-%")
					b.ReportMetric(float64(agg.PredPrecise+agg.PredImprecise)/float64(total)*100, "accuracy-%")
				}
			})
		}
	}
}

// BenchmarkPentest reproduces the §VIII-A penetration test: the Spectre V1
// attack against Unsafe (leaks) and Hybrid SDO (blocked). The metric is
// bytes recovered by the attacker.
func BenchmarkPentest(b *testing.B) {
	secret := []byte{0x5e, 0xc4}
	for _, v := range []core.Variant{core.Unsafe, core.STTLd, core.Hybrid} {
		b.Run(v.String(), func(b *testing.B) {
			var recovered int
			for i := 0; i < b.N; i++ {
				out, err := attack.RunSpectreV1(v, pipeline.Spectre, secret)
				if err != nil {
					b.Fatal(err)
				}
				recovered = 0
				for k := range secret {
					if out.Recovered[k] == secret[k] {
						recovered++
					}
				}
			}
			b.ReportMetric(float64(recovered), "bytes-leaked")
		})
	}
}

// --- Microbenchmarks of the substrates ---

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per second) of the detailed core, one sub-benchmark per ledger
// kernel (bench/'s Figure 6 grid) × {Unsafe, STT{ld}, Hybrid} under the
// Futuristic model: the emptiest issue queue (deepsjeng_r/Unsafe, the
// README trajectory row) through the fullest (taint-delayed mcf_r).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, name := range []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"} {
		wl, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []core.Variant{core.Unsafe, core.STTLd, core.Hybrid} {
			b.Run(fmt.Sprintf("%s/%v", name, v), func(b *testing.B) {
				benchThroughput(b, wl, core.Config{Variant: v, Model: pipeline.Futuristic, MaxInstrs: 50_000})
			})
		}
	}
}

// benchThroughput runs wl under cfg b.N times, image build included, and
// reports allocations and simulated instructions per second.
func benchThroughput(b *testing.B, wl workload.Workload, cfg core.Config) {
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		prog, init := wl.Build()
		r, err := core.NewMachine(cfg, prog, init).Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Committed
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkOblLoad measures the data-oblivious lookup path in isolation.
func BenchmarkOblLoad(b *testing.B) {
	for _, lvl := range []mem.Level{mem.L1, mem.L2, mem.L3} {
		b.Run(lvl.String(), func(b *testing.B) {
			h := mem.NewHierarchy(mem.DefaultConfig())
			h.Load(0, 0x1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.OblLoad(uint64(i)*50, 0x1000, lvl)
			}
		})
	}
}

// BenchmarkSchemeDispatch measures the cost of the pluggable Scheme
// interface per simulated instruction, one sub-benchmark per registered
// scheme on the same kernel and budget. Interleaved methodology: run the
// sub-benchmarks together in one invocation (they alternate within the
// same process, so frequency scaling and cache state average out) and
// compare Unsafe's sim-instrs/s against BenchmarkSimulatorThroughput's
// trajectory record from before the refactor — the interface dispatch
// replaced an inlined Protection switch, and any measurable overhead
// would show up as an Unsafe regression.
func BenchmarkSchemeDispatch(b *testing.B) {
	wl, err := workload.ByName("deepsjeng_r")
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range core.Registered() {
		b.Run(v.String(), func(b *testing.B) {
			benchThroughput(b, wl, core.Config{Variant: v, MaxInstrs: 50_000})
		})
	}
}

// BenchmarkNormalLoad measures the filling load path (L1 hits).
func BenchmarkNormalLoad(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultConfig())
	h.Load(0, 0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i)*10, 0x1000)
	}
}

// BenchmarkHybridPredictor measures predict+update of the §V-D hybrid.
func BenchmarkHybridPredictor(b *testing.B) {
	p := sdo.NewHybrid(512)
	levels := []mem.Level{mem.L1, mem.L1, mem.L1, mem.L2, mem.L1, mem.L3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i % 64 * 8)
		p.Predict(pc, 0)
		p.Update(pc, levels[i%len(levels)])
	}
}

// BenchmarkGoldenExecutor measures the functional ISA model.
func BenchmarkGoldenExecutor(b *testing.B) {
	prog := isa.NewBuilder().
		MovI(isa.R1, 0).
		MovI(isa.R2, 10_000).
		MovI(isa.R3, 0).
		Label("loop").
		Add(isa.R3, isa.R3, isa.R1).
		AddI(isa.R1, isa.R1, 1).
		Blt(isa.R1, isa.R2, "loop").
		Halt().
		MustBuild()
	memimg := isa.NewMemory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arch.Exec(prog, memimg, nil, math.MaxUint64); err != nil {
			b.Fatal(err)
		}
	}
}
