package simsvc

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
)

// sampledReq is smallReq in sampled mode: a 6000-instruction window cut
// into 2000-instruction intervals, so clustering has real work to do.
func sampledReq() harness.Request {
	req := smallReq()
	req.MaxInstrs = 6000
	req.SimMode = "sampled"
	req.SampleIntervalInstrs = 2000
	return req
}

func TestSampledSweep(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())

	j := submitAndWait(t, s, sampledReq())
	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(res.Runs))
	}
	for k, r := range res.Runs {
		if r.Committed == 0 || r.Cycles == 0 {
			t.Errorf("%v: empty reconstructed result: %+v", k, r)
		}
	}

	// 4 cells over 2 workloads: one plan build per workload, every other
	// sampled cell joins the plan flight.
	if got := metric(t, s, "sdo_sample_plans_built_total"); got != 2 {
		t.Errorf("built %v sample plans, want 2", got)
	}
	if got := metric(t, s, "sdo_sample_plan_hits_total"); got != 2 {
		t.Errorf("%v plan hits, want 2", got)
	}
	if got := metric(t, s, "sdo_sampled_cells_total"); got != 4 {
		t.Errorf("%v sampled cells, want 4", got)
	}
	if metric(t, s, "sdo_sampled_detailed_instrs_total") == 0 || metric(t, s, "sdo_profiled_instrs_total") == 0 {
		t.Errorf("sampled instruction accounting missing: %s", metricLines(s, "sdo_"))
	}

	// A repeated sampled sweep answers entirely from the result cache:
	// nothing runs, no plan is rebuilt.
	execBefore := metric(t, s, "sdo_runs_executed_total")
	submitAndWait(t, s, sampledReq())
	if metric(t, s, "sdo_runs_executed_total") != execBefore || metric(t, s, "sdo_sample_plans_built_total") != 2 || metric(t, s, "sdo_sample_plan_hits_total") != 2 {
		t.Errorf("cached sampled re-sweep ran work: %s", metricLines(s, "sdo_"))
	}
}

func TestSampledMatchesHarness(t *testing.T) {
	// The service's plan tier must be invisible in the results: a sampled
	// job's runs equal a direct sampled harness sweep with the same
	// options (sampling is deterministic end to end).
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())

	req := sampledReq()
	j := submitAndWait(t, s, req)
	got, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatal("service sampled-mode results differ from direct harness run")
	}
}

// TestSamplePlanRebuiltAfterRestart: the service stores results and
// nothing else. A restarted server on the same cache rebuilds the sampling
// plans — or, for a functional-warmup sweep, the checkpoints — it needs
// (deterministically: the first life's results still answer the original
// grid) and leaves no artifact directory behind.
func TestSamplePlanRebuiltAfterRestart(t *testing.T) {
	for _, tc := range []struct {
		name, built string
		req         harness.Request
	}{
		{"sampled", "sdo_sample_plans_built_total", sampledReq()},
		{"functional", "sdo_checkpoints_captured_total", functionalReq()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := filepath.Join(t.TempDir(), "cache.json")

			s1 := newService(t, Config{Workers: 2, CachePath: cache})
			submitAndWait(t, s1, tc.req)
			if got := metric(t, s1, tc.built); got != 2 {
				t.Fatalf("%s = %v, want 2", tc.built, got)
			}
			if err := s1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			// A different variant grid: cells not in the result cache, but
			// the same artifact keys.
			s2 := newService(t, Config{Workers: 2, CachePath: cache})
			defer s2.Shutdown(context.Background())
			req := tc.req
			req.Variants = []string{"stt"}
			j := submitAndWait(t, s2, req)
			if st := j.Status(); st.Cached != 0 {
				t.Fatalf("restart sweep unexpectedly cached: %+v", st)
			}
			if got := metric(t, s2, tc.built); got != 2 {
				t.Errorf("restarted server: %s = %v, want 2", tc.built, got)
			}
			if _, err := os.Stat(cache + ".ckpts"); !os.IsNotExist(err) {
				t.Errorf("%s.ckpts exists (stat err %v); the service must store results only", cache, err)
			}

			j2 := submitAndWait(t, s2, tc.req)
			if st := j2.Status(); st.Cached != st.Total {
				t.Errorf("original grid not fully cached after restart: %+v", st)
			}
		})
	}
}

// TestSampledIntervalSeries: a sampled job with interval_cycles gets
// per-representative-window time series (with reconstruction weights)
// instead of the whole-window Intervals a detailed run would carry.
func TestSampledIntervalSeries(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())

	req := sampledReq()
	req.IntervalCycles = 200
	j := submitAndWait(t, s, req)
	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res.Runs {
		if len(r.SampledWindows) == 0 {
			t.Fatalf("%v: no sampled windows", k)
		}
		if r.Intervals != nil {
			t.Errorf("%v: sampled run carries a whole-window series", k)
		}
		if r.IntervalCycles != 200 {
			t.Errorf("%v: IntervalCycles = %d, want 200", k, r.IntervalCycles)
		}
		var weight float64
		for _, w := range r.SampledWindows {
			if len(w.Intervals) == 0 {
				t.Errorf("%v: window @%d has no interval points", k, w.Start)
			}
			if w.Len == 0 || w.Weight <= 0 {
				t.Errorf("%v: window @%d malformed: len=%d weight=%g", k, w.Start, w.Len, w.Weight)
			}
			weight += w.Weight
		}
		if weight < 0.999 || weight > 1.001 {
			t.Errorf("%v: window weights sum to %g, want ~1", k, weight)
		}
	}

	// Interval sampling is part of the cache key: the same sweep without
	// it must not be served the windowed results.
	j2 := submitAndWait(t, s, sampledReq())
	res2, err := j2.Results()
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res2.Runs {
		if len(r.SampledWindows) != 0 {
			t.Errorf("%v: interval-free sampled run carries windows", k)
		}
	}
}

func TestCacheKeySeparatesSimModes(t *testing.T) {
	detailed := harness.RunSpec{Workload: "mcf_r", WarmupInstrs: 1000, MaxInstrs: 2000}
	sampled := detailed
	sampled.SimMode = harness.SimSampled
	sampled.SampleInterval, sampled.SampleMaxK, sampled.SampleSeed = 5000, 8, 1
	kd, err := detailed.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := sampled.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if kd == ks {
		t.Fatal("detailed and sampled cells share a cache key")
	}
	// The zero SimMode means detailed: pre-v4 shaped specs and explicit
	// detailed specs must key identically.
	explicit := detailed
	explicit.SimMode = harness.SimDetailed
	ke, err := explicit.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ke != kd {
		t.Fatal(`zero SimMode and explicit "detailed" key differently`)
	}
	// Sampling parameters are part of the key.
	reseeded := sampled
	reseeded.SampleSeed = 2
	kr, err := reseeded.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if kr == ks {
		t.Fatal("sampled cells with different seeds share a cache key")
	}
}

func TestPlanKeyIgnoresVariantModelAblation(t *testing.T) {
	// A plan is keyed by workload, window and sampling config alone: cells
	// that differ in variant, model or ablation execute one build.
	var e harness.Executor
	a := harness.RunSpec{Workload: "mcf_r", WarmupInstrs: 1000, MaxInstrs: 6000,
		SimMode: harness.SimSampled, SampleInterval: 2000, SampleMaxK: 8, SampleSeed: 1}
	b := a
	b.Variant = core.Hybrid
	b.Model = pipeline.Futuristic
	b.Ablate.AlwaysValidate = true
	c := a
	c.SampleInterval = 1000
	for _, spec := range []harness.RunSpec{a, b, c} {
		if _, _, err := e.Run(context.Background(), spec, harness.RunPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.PlansBuilt.Load(); got != 2 {
		t.Errorf("built %d plans, want 2: one per sampling interval", got)
	}
	if got := e.PlanHits.Load(); got != 1 {
		t.Errorf("%d plan hits, want 1: the variant/model/ablation change shares", got)
	}
}

func TestSampledRequestValidation(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	bad := sampledReq()
	bad.Ablations = true
	if _, err := s.Submit(bad); err == nil {
		t.Error("sampled ablation job accepted")
	}
	bad = sampledReq()
	bad.SimMode = "fast"
	if _, err := s.Submit(bad); err == nil {
		t.Error("unknown sim_mode accepted")
	}
}
