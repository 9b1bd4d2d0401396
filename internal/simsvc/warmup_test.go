package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// functionalReq is smallReq in functional-warmup mode.
func functionalReq() SweepRequest {
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
	opt, _, err := s.resolve(req)
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
		if _, _, _, err := e.Run(context.Background(), spec, harness.RunPolicy{}); err != nil {
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
	req := SweepRequest{
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
	opt, _, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RunAblations(opt, pipeline.Spectre)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ex.Sections[0].Rows, want) {
		t.Fatalf("service ablation rows differ from CLI rows:\nservice %+v\ncli     %+v", ex.Sections[0].Rows, want)
	}
}

func TestAblationsOverHTTP(t *testing.T) {
	_, ts := httpService(t)

	warmup := uint64(1000)
	st := postSweep(t, ts, SweepRequest{
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
	var ex AblationExport
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

// Guard against the ablation cell enumeration and the aggregation in
// Job.Ablations drifting apart: the cell order is a documented contract.
func TestAblationCellOrder(t *testing.T) {
	opt := harness.DefaultOptions()
	var wls []workload.Workload
	for _, n := range []string{"mcf_r", "xz_r"} {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	opt.Workloads = wls
	opt.Models = []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic}
	cells := opt.AblationSpecs()
	rowsPer := len(harness.AblationRows())
	perWorkload := 1 + rowsPer
	if want := 2 * 2 * perWorkload; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	// Model-major, workload-minor; first cell of each block is the Unsafe
	// baseline with no ablation.
	for mi, m := range opt.Models {
		for wi, wl := range opt.Workloads {
			base := cells[mi*2*perWorkload+wi*perWorkload]
			if base.Model != m || base.Workload != wl.Name || base.Variant != 0 {
				t.Fatalf("block (%d,%d) starts with %+v", mi, wi, base)
			}
		}
	}
}
