package harness

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

func byName(t *testing.T, name string) workload.Workload {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestParseSimMode(t *testing.T) {
	for s, want := range map[string]SimMode{"": SimDetailed, "detailed": SimDetailed, "sampled": SimSampled} {
		got, err := ParseSimMode(s)
		if err != nil || got != want {
			t.Errorf("ParseSimMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseSimMode("fast"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestSamplePlanDeterminism(t *testing.T) {
	wl := byName(t, "omnetpp_r")
	cfg := simpoint.Config{IntervalInstrs: 2000}
	a, err := BuildSamplePlan(wl, 5000, 30_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSamplePlan(wl, 5000, 30_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Plan, b.Plan) {
		t.Fatal("same (workload, window, config) produced different plans")
	}
	if len(a.Checkpoints) != len(a.Plan.Reps) {
		t.Fatalf("%d checkpoints for %d representatives", len(a.Checkpoints), len(a.Plan.Reps))
	}
	for i, ck := range a.Checkpoints {
		if ck.WarmupInstrs != a.Plan.Reps[i].Start {
			t.Errorf("checkpoint %d at boundary %d, want %d", i, ck.WarmupInstrs, a.Plan.Reps[i].Start)
		}
	}
}

// TestSampledSingleIntervalExact pins the reconstruction identity: with
// one interval covering the whole window (weight 1), the sampled result
// must equal exactly what reconstructResult produces from the equivalent
// functional-warmup detailed run — warm-base subtraction on the memory
// counters followed by normalization to the window length (a detailed run
// may overshoot its budget by a few instructions on a wide commit).
func TestSampledSingleIntervalExact(t *testing.T) {
	const warmup, window = 2000, 4000
	wl := byName(t, "mcf_r")
	sp, err := BuildSamplePlan(wl, warmup, window, simpoint.Config{IntervalInstrs: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Plan.Reps) != 1 {
		t.Fatalf("%d representatives, want 1", len(sp.Plan.Reps))
	}
	got, _, err := RunSampledCell(context.Background(), 1, wl, core.Hybrid, pipeline.Futuristic,
		core.Ablation{}, sp, RunParams{}, RunPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunCell(context.Background(), wl, core.Hybrid, pipeline.Futuristic, core.Ablation{},
		RunParams{WarmupInstrs: warmup, MaxInstrs: window, WarmupMode: core.WarmupFunctional},
		RunPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want := reconstructResult(sp.Plan, []core.Result{subtractWarmBase(direct, sp.Checkpoints[0])})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-interval sampled run is not exact:\n got %+v\nwant %+v", got, want)
	}
	if got.Committed != window {
		t.Errorf("reconstructed Committed %d, want exactly the window %d", got.Committed, window)
	}
}

// TestSampledAccuracy is the subsystem's headline contract (documented in
// DESIGN.md): sampled-mode IPC stays within 6% of the full detailed run
// while executing measurably fewer detailed instructions. Three
// contrasting workloads under both attack models.
func TestSampledAccuracy(t *testing.T) {
	const warmup, window, tolerance = 20_000, 40_000, 0.06

	opt := DefaultOptions()
	opt.WarmupInstrs = warmup
	opt.MaxInstrs = window
	opt.Variants = []core.Variant{core.Hybrid}
	opt.Workloads = []workload.Workload{byName(t, "mcf_r"), byName(t, "gcc_r"), byName(t, "xz_r")}

	detailed, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	sopt := opt
	sopt.SimMode = SimSampled
	sampled, err := Run(sopt)
	if err != nil {
		t.Fatal(err)
	}

	if sampled.SamplePlans == nil || sampled.DetailedInstrsSimulated == 0 {
		t.Fatal("sampled run missing plan/instruction accounting")
	}
	full := uint64(len(sopt.Cells())) * window
	if sampled.DetailedInstrsSimulated >= full {
		t.Errorf("sampled mode simulated %d detailed instrs, full grid is %d — no savings",
			sampled.DetailedInstrsSimulated, full)
	}

	for k, d := range detailed.Runs {
		s, ok := sampled.Runs[k]
		if !ok {
			t.Errorf("%v: missing sampled run", k)
			continue
		}
		dIPC := float64(d.Committed) / float64(d.Cycles)
		sIPC := float64(s.Committed) / float64(s.Cycles)
		if rel := math.Abs(sIPC-dIPC) / dIPC; rel > tolerance {
			t.Errorf("%v: sampled IPC %.4f vs detailed %.4f (%.1f%% error, tolerance %.0f%%)",
				k, sIPC, dIPC, 100*rel, 100*tolerance)
		}
		// Committed must reconstruct to ≈ the window (weights sum to 1).
		if math.Abs(float64(s.Committed)-float64(window)) > 1 {
			t.Errorf("%v: reconstructed Committed %d, want ≈%d", k, s.Committed, window)
		}
	}
}

// TestSampledSweepDeterminism: two identical sampled sweeps are
// bit-identical — the property that makes sampled results cacheable.
func TestSampledSweepDeterminism(t *testing.T) {
	opt := DefaultOptions()
	opt.WarmupInstrs = 2000
	opt.MaxInstrs = 12_000
	opt.SimMode = SimSampled
	opt.Sample = simpoint.Config{IntervalInstrs: 3000}
	opt.Variants = []core.Variant{core.Unsafe, core.Hybrid}
	opt.Models = []pipeline.AttackModel{pipeline.Spectre}
	opt.Workloads = []workload.Workload{byName(t, "deepsjeng_r"), byName(t, "x264_r")}

	a, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatal("repeated sampled sweep differs")
	}
}

// TestCheckpointSurvivesRestores is the immutability contract restoring
// by reference rests on: one SamplePlan serves every cell of its workload,
// at once, and each restored machine shares the checkpoints' pages
// instead of copying them. Two cells under different schemes run the same
// plan concurrently (every interval of both in flight together) and then
// one after the other; the results must agree, and every checkpoint's
// memory image must come out bit-for-bit what it was before the first
// restore. lbm_r is the kernel that makes this bite: it streams stores,
// so every interval dirties pages its checkpoint holds.
func TestCheckpointSurvivesRestores(t *testing.T) {
	const warmup, window = 4000, 24_000
	wl := byName(t, "lbm_r")
	// A hand-laid plan: lbm_r is so uniform that clustering picks one
	// representative, and the contract needs several checkpoints that
	// share pages with each other.
	plan := &simpoint.Plan{WarmupInstrs: warmup, WindowInstrs: window, NumIntervals: 8, K: 3}
	for i := 0; i < plan.K; i++ {
		plan.Reps = append(plan.Reps, simpoint.Rep{Index: 3 * i, Start: warmup + uint64(i)*9000, Len: 3000, Weight: 1.0 / 3})
	}
	prog, data := wl.Image()
	sp := &SamplePlan{Plan: plan, Checkpoints: core.CaptureCheckpoints(core.Config{}, prog, data, plan.Boundaries())}
	before := make([]map[uint64][]byte, len(sp.Checkpoints))
	for i, ck := range sp.Checkpoints {
		before[i] = make(map[uint64][]byte, len(ck.Mem))
		for pn, b := range ck.Mem {
			before[i][pn] = append([]byte{}, b...)
		}
	}

	variants := []core.Variant{core.Hybrid, core.SafeSpec}
	run := func(v core.Variant) core.Result {
		r, _, err := RunSampledCell(context.Background(), 2, wl, v, pipeline.Futuristic,
			core.Ablation{}, sp, RunParams{}, RunPolicy{}, nil)
		if err != nil {
			t.Error(err)
		}
		return r
	}
	concurrent := make([]core.Result, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v core.Variant) {
			defer wg.Done()
			concurrent[i] = run(v)
		}(i, v)
	}
	wg.Wait()
	for i, v := range variants {
		if serial := run(v); !reflect.DeepEqual(serial, concurrent[i]) {
			t.Errorf("%v: the serial run differs from the concurrent one:\n got %+v\nwant %+v", v, serial, concurrent[i])
		}
		if concurrent[i].Committed == 0 {
			t.Errorf("%v: nothing committed", v)
		}
	}
	for i, ck := range sp.Checkpoints {
		if !reflect.DeepEqual(ck.Mem, before[i]) {
			t.Errorf("checkpoint %d (boundary %d): memory image changed under its restores", i, ck.WarmupInstrs)
		}
	}
}

// TestHierarchyReuseIsInvisible: a machine takes its memory hierarchy
// from a pool of Released ones (core.NewMachineWithMemory), so in a warm
// process a cell runs on tag arrays that served some other cell — another
// scheme, another kernel — moments earlier. A 2-worker sampled sweep over
// every registered scheme and the 64-cell detailed grid must export the
// same bytes from an empty pool (every hierarchy built) and from a full
// one (every hierarchy reused).
func TestHierarchyReuseIsInvisible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wls []workload.Workload
	for _, name := range []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"} {
		wls = append(wls, byName(t, name))
	}
	models := []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic}
	for name, opt := range map[string]Options{
		"sampled": {WarmupInstrs: 5000, MaxInstrs: 12_000, SimMode: SimSampled,
			Sample:    simpoint.Config{IntervalInstrs: 2000, Seed: 1},
			Workloads: wls, Variants: core.Registered(), Models: models, Parallel: true},
		"detailed": {WarmupInstrs: 2000, MaxInstrs: 6000,
			Workloads: wls, Variants: core.Variants(), Models: models, Parallel: true},
	} {
		export := func() []byte {
			res, err := Run(opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return buf.Bytes()
		}
		// Two collections empty a sync.Pool.
		runtime.GC()
		runtime.GC()
		cold := export()
		if hot := export(); !bytes.Equal(cold, hot) {
			t.Errorf("%s: the export from pooled hierarchies differs from the one from new hierarchies", name)
		}
	}
}

// BenchmarkLedgerPlans builds the sampling plans of the four ledger
// kernels at the paper's budgets — the plan set a sampled sweep of the
// ledger grid memoises — and reports the heap that set retains (live-B):
// mostly the tag arrays, predictor tables and dirtied pages of its
// checkpoints. The kernels' initial images are built beforehand, so they
// are not counted.
func BenchmarkLedgerPlans(b *testing.B) {
	opt := DefaultOptions()
	var wls []workload.Workload
	for _, name := range []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"} {
		wl, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		wl.Image()
		wls = append(wls, wl)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	plans := make([]*SamplePlan, len(wls))
	before := liveHeap()
	for i := 0; i < b.N; i++ {
		for k, wl := range wls {
			sp, err := BuildSamplePlan(wl, opt.WarmupInstrs, opt.MaxInstrs, TunedSampleConfig(wl.Name, simpoint.Config{Seed: 1}))
			if err != nil {
				b.Fatal(err)
			}
			plans[k] = sp
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(int64(liveHeap())-int64(before)), "live-B")
	runtime.KeepAlive(plans)
}
