package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
)

// functionalReq is smallReq in functional-warmup mode.
func functionalReq() harness.Request {
	req := smallReq()
	req.WarmupMode = "functional"
	return req
}

func TestFunctionalWarmupCheckpointTier(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())

	j := submitAndWait(t, s, functionalReq())
	if _, err := j.Results(); err != nil {
		t.Fatal(err)
	}

	// 4 cells over 2 workloads: one capture per (workload, warmup), every
	// other cell restores it. Warmup is simulated exactly once per
	// workload.
	if got := metric(t, s, "sdo_checkpoints_captured_total"); got != 2 {
		t.Errorf("captured %v checkpoints, want 2", got)
	}
	if got := metric(t, s, "sdo_checkpoint_hits_total"); got != 2 {
		t.Errorf("%v checkpoint hits, want 2", got)
	}
	if got, want := metric(t, s, "sdo_warmup_instrs_simulated_total"), 2*float64(1000); got != want {
		t.Errorf("simulated %v warmup instructions, want %v", got, want)
	}

	// A repeated functional sweep answers from the result cache without
	// touching the checkpoint tier again.
	submitAndWait(t, s, functionalReq())
	if metric(t, s, "sdo_checkpoints_captured_total") != 2 || metric(t, s, "sdo_checkpoint_hits_total") != 2 {
		t.Errorf("cached re-sweep changed checkpoint counters: %s", metricLines(s, "sdo_checkpoint"))
	}
}

func TestFunctionalModeMatchesHarness(t *testing.T) {
	// The service's checkpoint tier must be invisible in the results: a
	// functional-mode job's export equals a direct harness sweep with the
	// same options (which captures and reuses its own checkpoints).
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())

	req := functionalReq()
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
		t.Fatal("service functional-mode results differ from direct harness run")
	}
	if got, want := mustJSON(t, got.Export()), mustJSON(t, want.Export()); got != want {
		t.Fatal("service export differs from harness export")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCacheKeySeparatesWarmupModes(t *testing.T) {
	a := harness.RunSpec{Workload: "mcf_r", WarmupInstrs: 1000, MaxInstrs: 2000}
	b := a
	b.WarmupMode = 1
	ka, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatal("detailed and functional cells share a cache key")
	}
}

func TestCheckpointKeyIgnoresVariantModelAblation(t *testing.T) {
	// A checkpoint is keyed by (workload, warmup) alone: cells that differ
	// in variant, model, budget or ablation restore one capture.
	var e harness.Executor
	a := harness.RunSpec{Workload: "mcf_r", WarmupInstrs: 1000, MaxInstrs: 2000, WarmupMode: core.WarmupFunctional}
	b := a
	b.Variant = core.Hybrid
	b.Model = pipeline.Futuristic
	b.MaxInstrs = 3000
	b.Ablate.AlwaysValidate = true
	c := a
	c.WarmupInstrs = 2000
	for _, spec := range []harness.RunSpec{a, b, c} {
		if _, _, err := e.Run(context.Background(), spec, harness.RunPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.CheckpointsCaptured.Load(); got != 2 {
		t.Errorf("captured %d checkpoints, want 2: one per warmup budget", got)
	}
	if got := e.CheckpointHits.Load(); got != 1 {
		t.Errorf("%d checkpoint hits, want 1: the variant/model/budget/ablation change shares", got)
	}
}

func TestAblationJob(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())

	warmup := uint64(1000)
	req := harness.Request{
		Workloads:    []string{"exchange2_r"},
		Models:       []string{"spectre"},
		MaxInstrs:    2000,
		WarmupInstrs: &warmup,
		WarmupMode:   "functional",
		Ablations:    true,
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != JobDone {
		t.Fatalf("job %s: state %s, err %q", j.ID, st.State, st.Error)
	}
	rowsPer := len(harness.AblationRows())
	if want := 1 + rowsPer; j.Status().Total != want {
		t.Fatalf("ablation job has %d cells, want %d", j.Status().Total, want)
	}
	if _, err := j.Results(); err == nil {
		t.Fatal("ablation job should refuse the sweep export")
	}
	ex, err := j.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Sections) != 1 || ex.Sections[0].Model != "Spectre" {
		t.Fatalf("sections: %+v", ex.Sections)
	}
	for _, r := range ex.Sections[0].Rows {
		if r.NormTime <= 0 {
			t.Fatalf("%s: no measurement", r.Name)
		}
	}

	// The aggregated rows equal the CLI path's (shared RunOne + shared
	// aggregation, and the same per-workload checkpoints semantics).
	opt, specs, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunSpecs(context.Background(), opt, specs)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.AblationExport(); !reflect.DeepEqual(ex, want) {
		t.Fatalf("service ablation document differs from the CLI's:\nservice %+v\ncli     %+v", ex, want)
	}
}

// TestDegradedAblationExport pins the degraded-ablation rule end to end:
// one failed ablated Hybrid cell (xz_r, Futuristic, always-validate)
// degrades the job, drops xz_r from the Futuristic table only, and leaves
// the Spectre table averaging both workloads. Each table equals the one a
// fault-free job over its surviving workloads exports.
func TestDegradedAblationExport(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())
	var panics atomic.Int64
	s.wrapPolicy = panicking(func(spec harness.RunSpec) bool {
		return spec.Workload == "xz_r" && spec.Model == pipeline.Futuristic &&
			spec.Variant == core.Hybrid && spec.Ablate == core.Ablation{AlwaysValidate: true}
	}, &panics)

	warmup := uint64(1000)
	req := func(models []string, wls ...string) harness.Request {
		return harness.Request{Workloads: wls, Models: models, MaxInstrs: 10_000,
			WarmupInstrs: &warmup, Ablations: true}
	}
	both := []string{"spectre", "futuristic"}
	j, err := s.Submit(req(both, "mcf_r", "xz_r"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != JobDegraded || st.Failed != 1 || panics.Load() != 1 {
		t.Fatalf("state %s, %d failed cells, %d panics; want degraded, 1, 1 (%+v)",
			st.State, st.Failed, panics.Load(), st)
	}
	got, err := j.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sections) != 2 || got.Sections[0].Model != "Spectre" || got.Sections[1].Model != "Futuristic" {
		t.Fatalf("sections: %+v", got.Sections)
	}
	for _, c := range []struct {
		sec  harness.AblationSection
		want harness.Request
	}{
		{got.Sections[0], req([]string{"spectre"}, "mcf_r", "xz_r")},
		{got.Sections[1], req([]string{"futuristic"}, "mcf_r")},
	} {
		ref, err := submitAndWait(t, s, c.want).Ablations()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.sec.Rows, ref.Sections[0].Rows) {
			t.Errorf("%s table:\ngot  %+v\nwant %+v (workloads %v)", c.sec.Model, c.sec.Rows, ref.Sections[0].Rows, c.want.Workloads)
		}
	}
	if reflect.DeepEqual(got.Sections[1].Rows, got.Sections[0].Rows) {
		t.Error("Futuristic and Spectre tables are equal: the degraded block did not drop")
	}
}

func TestAblationsOverHTTP(t *testing.T) {
	_, ts := httpService(t)

	warmup := uint64(1000)
	st := postSweep(t, ts, harness.Request{
		Workloads:    []string{"deepsjeng_r"},
		Models:       []string{"spectre", "futuristic"},
		MaxInstrs:    2000,
		WarmupInstrs: &warmup,
		Ablations:    true,
	})
	rowsPer := len(harness.AblationRows())
	if want := 2 * (1 + rowsPer); st.Total != want {
		t.Fatalf("ablation job has %d cells, want %d", st.Total, want)
	}
	body := get(t, fmt.Sprintf("%s/sweeps/%s/export", ts.URL, st.ID), 200)
	var ex harness.AblationExport
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatalf("export is not an ablation document: %v\n%s", err, body)
	}
	if len(ex.Sections) != 2 {
		t.Fatalf("export has %d sections, want 2", len(ex.Sections))
	}
	for _, sec := range ex.Sections {
		if len(sec.Rows) != rowsPer {
			t.Fatalf("%s: %d rows, want %d", sec.Model, len(sec.Rows), rowsPer)
		}
		for _, r := range sec.Rows {
			if r.NormTime <= 0 {
				t.Fatalf("%s/%s: no measurement", sec.Model, r.Name)
			}
		}
	}
}
