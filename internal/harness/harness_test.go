package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// quickSweep runs a reduced sweep for tests: three contrasting workloads,
// all variants, both models, small instruction budget.
func quickSweep(t *testing.T) *Results {
	t.Helper()
	opt := DefaultOptions()
	opt.MaxInstrs = 12_000
	var wls []workload.Workload
	for _, name := range []string{"mcf_r", "deepsjeng_r", "x264_r"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	opt.Workloads = wls
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepCompleteness(t *testing.T) {
	res := quickSweep(t)
	want := 3 * len(core.Variants()) * 2
	if len(res.Runs) != want {
		t.Fatalf("sweep produced %d runs, want %d", len(res.Runs), want)
	}
	for k, r := range res.Runs {
		// Detailed warmup can overshoot its boundary by up to the commit
		// width, so the measured window may be short by as much. (With
		// WarmupFunctional the handoff is exact and the window is never
		// short — TestFunctionalSweepExactWindow asserts that.)
		if r.Committed < res.Opt.MaxInstrs-8 {
			t.Errorf("%v: committed %d < budget %d", k, r.Committed, res.Opt.MaxInstrs)
		}
		if r.Cycles == 0 {
			t.Errorf("%v: zero cycles", k)
		}
	}
}

// smallFunctionalOptions is a reduced functional-warmup sweep grid.
func smallFunctionalOptions(t *testing.T) Options {
	t.Helper()
	opt := DefaultOptions()
	opt.WarmupInstrs = 10_000
	opt.MaxInstrs = 8_000
	opt.WarmupMode = core.WarmupFunctional
	var wls []workload.Workload
	for _, name := range []string{"mcf_r", "x264_r"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	opt.Workloads = wls
	return opt
}

func TestFunctionalSweepExactWindow(t *testing.T) {
	// With functional warmup the handoff is exact: warmup executes exactly
	// WarmupInstrs, so the measurement window is never short — every run
	// commits at least the full budget (no commit-width slack).
	opt := smallFunctionalOptions(t)
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(opt.Workloads) * len(opt.Variants) * len(opt.Models); len(res.Runs) != want {
		t.Fatalf("sweep produced %d runs, want %d", len(res.Runs), want)
	}
	for k, r := range res.Runs {
		if r.Committed < opt.MaxInstrs {
			t.Errorf("%v: committed %d < budget %d", k, r.Committed, opt.MaxInstrs)
		}
	}
	// Checkpoint accounting: one capture per workload, warmup simulated
	// exactly once per workload.
	if res.CheckpointsCaptured != len(opt.Workloads) {
		t.Errorf("captured %d checkpoints, want %d", res.CheckpointsCaptured, len(opt.Workloads))
	}
	if want := uint64(len(opt.Workloads)) * opt.WarmupInstrs; res.WarmupInstrsSimulated != want {
		t.Errorf("simulated %d warmup instructions, want exactly %d", res.WarmupInstrsSimulated, want)
	}
}

// warmInPlace runs spec's cell with its functional warmup executed in
// place — RunOne without a checkpoint, the executor's fallback when a
// capture fails.
func warmInPlace(spec RunSpec) (core.Result, error) {
	wl, err := workload.ByName(spec.Workload)
	if err != nil {
		return core.Result{}, err
	}
	return RunOne(wl, spec.Variant, spec.Model, spec.Ablate, RunParams{
		WarmupInstrs: spec.WarmupInstrs, MaxInstrs: spec.MaxInstrs, WarmupMode: spec.WarmupMode})
}

func TestCheckpointReuseBitIdentical(t *testing.T) {
	// The sweep's headline contract: restoring per-workload checkpoints
	// must produce bit-identical results to warming every cell in place —
	// while simulating far fewer warmup instructions.
	opt := smallFunctionalOptions(t)
	reuse, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	specs := opt.Specs()
	if len(reuse.Runs) != len(specs) {
		t.Fatalf("run counts differ: %d vs %d", len(reuse.Runs), len(specs))
	}
	inPlace := make([]core.Result, len(specs))
	if err := RunPool(context.Background(), opt.Workers(), len(specs), func(_ context.Context, i int) (err error) {
		inPlace[i], err = warmInPlace(specs[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		// A cell shares its representative's run, labels included; its
		// own in-place run must equal it in everything else.
		want, rep := inPlace[i], s.Representative()
		want.Variant, want.Model = rep.Variant, rep.Model
		if a := reuse.Runs[s.Key()]; !reflect.DeepEqual(*a, want) {
			t.Fatalf("%v: checkpoint reuse changed the result:\nreuse    %+v\nin place %+v", s.Key(), a, want)
		}
	}
	if cells := uint64(len(specs)) * opt.WarmupInstrs; reuse.WarmupInstrsSimulated >= cells {
		t.Errorf("reuse simulated %d warmup instructions, warming in place %d: no savings",
			reuse.WarmupInstrsSimulated, cells)
	}
}

func TestAblationCheckpointReuse(t *testing.T) {
	// Ablation cells share the workload checkpoint (ablations only alter
	// speculative execution, which functional warmup has none of), so the
	// study must equal one whose cells are warmed in place.
	opt := smallFunctionalOptions(t)
	opt.Workloads = opt.Workloads[:1]
	opt.Models = []pipeline.AttackModel{pipeline.Spectre}
	specs := opt.AblationSpecs()
	reuse, err := RunSpecs(context.Background(), opt, specs)
	if err != nil {
		t.Fatal(err)
	}
	inPlace := &Results{Opt: reuse.Opt, Runs: make(map[Key]*core.Result)}
	for _, s := range specs {
		r, err := warmInPlace(s)
		if err != nil {
			t.Fatal(err)
		}
		inPlace.Runs[s.Key()] = &r
	}
	if !reflect.DeepEqual(reuse.Runs, inPlace.Runs) {
		t.Fatal("ablation cells restored from the checkpoint differ from cells warmed in place")
	}
	rows := reuse.AblationExport().Sections[0].Rows
	if want := inPlace.AblationExport().Sections[0].Rows; !reflect.DeepEqual(rows, want) {
		t.Fatalf("ablation rows differ:\nreuse    %+v\nin place %+v", rows, want)
	}
	for _, r := range rows {
		if r.NormTime <= 0 {
			t.Fatalf("%s: no measurement", r.Name)
		}
	}
}

// exportRow finds the row of (v, m) among an export's rows, failing the
// test when it has none.
func exportRow[R interface{ Fig6Row | Fig7Row | T3Row }](t *testing.T, rows []R, v core.Variant, m pipeline.AttackModel) R {
	t.Helper()
	for _, row := range rows {
		var model, variant string
		switch r := any(row).(type) {
		case Fig6Row:
			model, variant = r.Model, r.Variant
		case Fig7Row:
			model, variant = r.Model, r.Variant
		case T3Row:
			model, variant = r.Model, r.Variant
		}
		if model == m.String() && variant == v.String() {
			return row
		}
	}
	t.Fatalf("the export has no %T for %v/%v", *new(R), v, m)
	panic("unreachable")
}

func TestExpectedShapeHolds(t *testing.T) {
	// The qualitative results the paper reports, asserted on the reduced
	// sweep's export (see DESIGN.md "Expected shape").
	ex := quickSweep(t).Export()
	for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		avg := func(v core.Variant) float64 { return exportRow(t, ex.Figure6, v, m).NormTime }
		// 1. Unsafe normalizes to 1; protections cost something on the
		// taint-heavy workloads.
		if got := avg(core.Unsafe); got != 1.0 {
			t.Errorf("%v: unsafe normalized time = %.3f", m, got)
		}
		stt := avg(core.STTLd)
		if stt <= 1.0 {
			t.Errorf("%v: STT{ld} should cost something, got %.3f", m, stt)
		}
		// 2. STT{ld+fp} >= STT{ld} (more transmitters delayed).
		if avg(core.STTLdFp)+1e-9 < stt {
			t.Errorf("%v: STT{ld+fp} (%.3f) cheaper than STT{ld} (%.3f)",
				m, avg(core.STTLdFp), stt)
		}
		// 3. Perfect SDO beats both STT baselines.
		if avg(core.Perfect) >= avg(core.STTLdFp) {
			t.Errorf("%v: Perfect (%.3f) should beat STT{ld+fp} (%.3f)",
				m, avg(core.Perfect), avg(core.STTLdFp))
		}
	}
}

func TestPredictorQualityShape(t *testing.T) {
	ex := quickSweep(t).Export()
	for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		l1 := exportRow(t, ex.TableIII, core.StaticL1, m)
		if l1.Precision != l1.Accuracy {
			t.Errorf("%v: Static L1 precision (%f) must equal accuracy (%f)", m, l1.Precision, l1.Accuracy)
		}
		l3 := exportRow(t, ex.TableIII, core.StaticL3, m)
		if l3.Precision > l3.Accuracy {
			t.Errorf("%v: precision cannot exceed accuracy", m)
		}
		// Static L3 accuracy >= Static L1 accuracy (deeper predictions
		// cover more), and its precision is lower than the hybrid's.
		if l3.Accuracy+1e-9 < l1.Accuracy {
			t.Errorf("%v: Static L3 accuracy (%.3f) < Static L1 (%.3f)", m, l3.Accuracy, l1.Accuracy)
		}
		if ph := exportRow(t, ex.TableIII, core.Hybrid, m).Precision; ph <= l3.Precision {
			t.Errorf("%v: Hybrid precision (%.3f) should beat Static L3 (%.3f)", m, ph, l3.Precision)
		}
	}
}

func TestBreakdownConsistency(t *testing.T) {
	ex := quickSweep(t).Export()
	for _, v := range core.SDOVariants() {
		b := exportRow(t, ex.Figure7, v, pipeline.Spectre)
		sum := b.Inaccurate + b.Imprecise + b.Validation + b.TLB + b.Other
		if b.TotalPct < 0 {
			t.Errorf("%v: negative total overhead %.2f", v, b.TotalPct)
		}
		if sum > b.TotalPct+1e-6 {
			t.Errorf("%v: components (%.2f) exceed total (%.2f)", v, sum, b.TotalPct)
		}
		if b.Inaccurate < 0 || b.Imprecise < 0 || b.Validation < 0 || b.TLB < 0 || b.Other < 0 {
			t.Errorf("%v: negative component: %+v", v, b)
		}
	}
}

func TestReportsRender(t *testing.T) {
	res := quickSweep(t)
	ex := res.Export()
	var buf bytes.Buffer
	ex.WriteAll(&buf, res.Opt.Workloads)
	out := buf.String()
	for _, want := range []string{
		"TABLE I", "TABLE II", "FIGURE 6", "FIGURE 7", "FIGURE 8",
		"TABLE III", "SUMMARY",
		"Hybrid", "Static L2", "Perfect", "STT{ld+fp}",
		"mcf_r", "Avg",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestReportsRenderFromDecodedExport: the text reports format the export
// alone, so the document WriteJSON wrote, decoded, renders every report
// byte for byte as the live export does.
func TestReportsRenderFromDecodedExport(t *testing.T) {
	res := quickSweep(t)
	var doc bytes.Buffer
	if err := res.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	var decoded Export
	if err := json.Unmarshal(doc.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	live := res.Export()
	for name, render := range map[string]func(*Export, *bytes.Buffer){
		"all":     func(ex *Export, w *bytes.Buffer) { ex.WriteAll(w, res.Opt.Workloads) },
		"figure6": func(ex *Export, w *bytes.Buffer) { ex.WriteFigure6(w, res.Opt.Workloads) },
		"figure7": func(ex *Export, w *bytes.Buffer) { ex.WriteFigure7(w) },
		"figure8": func(ex *Export, w *bytes.Buffer) { ex.WriteFigure8(w) },
		"table3":  func(ex *Export, w *bytes.Buffer) { ex.WriteTableIII(w) },
		"summary": func(ex *Export, w *bytes.Buffer) { ex.WriteSummary(w) },
	} {
		var want, got bytes.Buffer
		render(&live, &want)
		render(&decoded, &got)
		if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s from the decoded export:\n%s\nfrom the live export:\n%s", name, &got, &want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical sweeps must agree bit-for-bit on cycle counts.
	a := quickSweep(t)
	b := quickSweep(t)
	for k, ra := range a.Runs {
		rb, ok := b.Runs[k]
		if !ok {
			t.Fatalf("missing run %v", k)
		}
		if ra.Cycles != rb.Cycles || ra.Committed != rb.Committed ||
			ra.TotalSquashes() != rb.TotalSquashes() {
			t.Fatalf("%v: nondeterministic results: %d/%d vs %d/%d cycles",
				k, ra.Cycles, ra.Committed, rb.Cycles, rb.Committed)
		}
	}
}

func TestSerialEqualsParallel(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxInstrs = 6_000
	wl, err := workload.ByName("xalancbmk_r")
	if err != nil {
		t.Fatal(err)
	}
	opt.Workloads = []workload.Workload{wl}
	par, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = false
	ser, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for k, rp := range par.Runs {
		if rs := ser.Runs[k]; rs.Cycles != rp.Cycles {
			t.Fatalf("%v: parallel %d cycles vs serial %d", k, rp.Cycles, rs.Cycles)
		}
	}
}

func TestJSONExport(t *testing.T) {
	res := quickSweep(t)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ex Export
	if err := json.Unmarshal(buf.Bytes(), &ex); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(ex.Runs) != len(res.Runs) {
		t.Fatalf("exported %d runs, want %d", len(ex.Runs), len(res.Runs))
	}
	if len(ex.Figure6) == 0 || len(ex.Figure7) == 0 || len(ex.Figure8) == 0 ||
		len(ex.TableIII) == 0 || len(ex.Summary) == 0 {
		t.Fatal("export missing sections")
	}
	// Exported Figure 6 averages must agree with the live computation.
	for _, row := range ex.Figure6 {
		if row.Variant == "Unsafe" && row.NormTime != 1.0 {
			t.Fatalf("unsafe norm time = %v", row.NormTime)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	warmup := uint64(6_000)
	opt, specs, err := Request{Workloads: []string{"xalancbmk_r"}, Models: []string{"spectre"},
		MaxInstrs: 6_000, WarmupInstrs: &warmup, Ablations: true}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(AblationRows()); len(specs) != want {
		t.Fatalf("%d cells, want %d", len(specs), want)
	}
	res, err := RunSpecs(context.Background(), opt, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(specs) {
		t.Fatalf("%d results for %d cells: keys collide", len(res.Runs), len(specs))
	}
	ex := res.AblationExport()
	rows := ex.Sections[0].Rows
	if len(rows) != 5 {
		t.Fatalf("got %d ablation rows", len(rows))
	}
	for _, r := range rows {
		if r.NormTime <= 0 {
			t.Fatalf("%s: no measurement", r.Name)
		}
	}
	var buf bytes.Buffer
	WriteAblations(&buf, ex)
	if !strings.Contains(buf.String(), "no early forwarding") {
		t.Fatal("ablation table incomplete")
	}
	// An ablated cell's name carries its row; a grid cell's does not.
	k := Key{Workload: "xalancbmk_r", Variant: core.Hybrid, Model: pipeline.Spectre, Ablate: core.Ablation{AlwaysValidate: true}}
	if got, want := k.String(), "xalancbmk_r/Hybrid/Spectre/no exposures (always validate)"; got != want {
		t.Errorf("ablated cell named %q, want %q", got, want)
	}
	if got := (Key{Workload: "xalancbmk_r", Model: pipeline.Spectre}).String(); got != "xalancbmk_r/Unsafe/Spectre" {
		t.Errorf("baseline cell named %q", got)
	}
	if line := FormatProgress(k, *res.Runs[k]); !strings.HasSuffix(line, "  no exposures (always validate)") {
		t.Errorf("progress line %q does not name the ablation", line)
	}
}

// TestAblationTablesDropFailedBlocks pins the one ablation failure rule
// the CLI and the service share: a missing cell drops its whole workload
// block from its model's table, and so does a zero baseline.
func TestAblationTablesDropFailedBlocks(t *testing.T) {
	opt := DefaultOptions()
	opt.Workloads = opt.Workloads[:3]
	opt.Models = []pipeline.AttackModel{pipeline.Spectre}
	res := &Results{Opt: opt, Runs: make(map[Key]*core.Result)}
	rowOf := make(map[core.Ablation]int)
	for ri, row := range AblationRows() {
		rowOf[row.Ablate] = ri + 1
	}
	wlIndex := make(map[string]int)
	for wi, wl := range opt.Workloads {
		wlIndex[wl.Name] = wi
	}
	for _, s := range opt.AblationSpecs() {
		wi := wlIndex[s.Workload]
		var r core.Result
		r.Cycles = uint64(100 * (wi + 1)) // baseline
		if s.Variant == core.Hybrid {
			r.Cycles += uint64(10 * rowOf[s.Ablate] * (wi + 1)) // row ri: +10·ri %
		}
		res.Runs[s.Key()] = &r
	}
	res.Runs[Key{Workload: opt.Workloads[2].Name, Model: pipeline.Spectre}] = &core.Result{} // workload 2: zero baseline
	delete(res.Runs, Key{Workload: opt.Workloads[0].Name, Variant: core.Hybrid, Model: pipeline.Spectre,
		Ablate: core.Ablation{AlwaysValidate: true}}) // one cell of workload 0
	rows := res.AblationExport().Sections[0].Rows
	for ri, r := range rows {
		// Only workload 1 survives: its row ri is exactly 1 + (ri+1)/10.
		if want := 1 + float64(ri+1)/10; math.Abs(r.NormTime-want) > 1e-12 {
			t.Errorf("%s: NormTime %v, want %v (workload 1 alone)", r.Name, r.NormTime, want)
		}
	}
}

// TestGridAndStudyShareCells: a run that reports both the grid and the
// design-space study simulates each cell once. The combined list names
// each key once, so each workload's Unsafe and unablated Hybrid cells,
// named by both, warm and run once; the grid's view exports
// byte-identically to a grid-only run, and the study's tables equal a
// study-only run's.
func TestGridAndStudyShareCells(t *testing.T) {
	warmup := uint64(2_000)
	req := Request{Workloads: []string{"mcf_r"}, Models: []string{"spectre"}, MaxInstrs: 3_000, WarmupInstrs: &warmup, Ablations: true}
	opt, study, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	specs := opt.GridAndStudySpecs()
	named := map[Key]int{}
	for _, s := range specs {
		if named[s.Key()]++; named[s.Key()] > 1 {
			t.Errorf("%v named twice in the combined list", s.Key())
		}
	}
	run := func(specs []RunSpec) *Results {
		t.Helper()
		res, err := RunSpecs(context.Background(), opt, specs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res, gridOnly, studyOnly := run(specs), run(opt.Specs()), run(study)
	// Detailed warmup is counted per simulated cell: the shared Unsafe
	// and Hybrid cells warm once, not once per report.
	sims := func(r *Results) uint64 { return r.WarmupInstrsSimulated / warmup }
	if got, want := sims(res), sims(gridOnly)+sims(studyOnly)-2; got != want {
		t.Errorf("combined run simulated %d cells, want %d (grid %d + study %d - 2 shared)",
			got, want, sims(gridOnly), sims(studyOnly))
	}
	if len(res.Runs) != len(specs) {
		t.Errorf("%d results for %d cells", len(res.Runs), len(specs))
	}
	var a, b bytes.Buffer
	if err := res.Only(opt.Specs()).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := gridOnly.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("the combined run's grid export differs from a grid-only run's")
	}
	if got, want := res.AblationExport(), studyOnly.AblationExport(); !reflect.DeepEqual(got, want) {
		t.Errorf("combined run's ablation document %+v, want %+v", got, want)
	}
}

// TestObserverRecordsOneCell: an observer's sinks are single-goroutine, so
// RunSpecs refuses one for a multi-cell run before simulating anything.
func TestObserverRecordsOneCell(t *testing.T) {
	opt := DefaultOptions()
	opt.Observer = obs.NewRecorder(0)
	opt.Parallel = true
	if _, err := RunSpecs(context.Background(), opt, opt.Specs()); err == nil {
		t.Error("RunSpecs ran a whole grid under one observer")
	}
}
