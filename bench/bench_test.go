package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/bench/report"
)

func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}, {-1, 1}, {200, 5}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if v[0] != 4 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("a single sample has no spread")
	}
}

func TestParseFig6(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "expected_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := parseFig6(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"Spectre", "Futuristic"} {
		if n := len(tabs[m]); n != 15 { // 14 kernels + Avg
			t.Errorf("%s table has %d rows, want 15", m, n)
		}
		for bench, row := range tabs[m] {
			if len(row) != tableIIVariants {
				t.Errorf("%s/%s has %d variants, want %d", m, bench, len(row), tableIIVariants)
			}
		}
	}
	// Spot values, including a variant name with a space and the table's
	// trailing zeros.
	if got := tabs["Futuristic"]["cactuBSSN_r"]["STT{ld+fp}"]; got != "4.809" {
		t.Errorf("Futuristic cactuBSSN_r STT{ld+fp} = %q, want 4.809", got)
	}
	if got := tabs["Spectre"]["xz_r"]["Static L1"]; got != "0.867" {
		t.Errorf("Spectre xz_r Static L1 = %q, want 0.867", got)
	}
	if got := tabs["Spectre"]["mcf_r"]["Unsafe"]; got != "1.000" {
		t.Errorf("Spectre mcf_r Unsafe = %q, want 1.000", got)
	}

	for name, bad := range map[string]string{
		"missing model": "FIGURE 6 (Spectre model): x\n  benchmark  A\n  k  1.000\n",
		"ragged row":    "FIGURE 6 (Spectre model): x\n  benchmark  A  B\n  k  1.000\n\nFIGURE 6 (Futuristic model): x\n  benchmark  A\n  k  1.000\n",
		"not a number":  "FIGURE 6 (Spectre model): x\n  benchmark  A\n  k  fast\n\nFIGURE 6 (Futuristic model): x\n  benchmark  A\n  k  1.000\n",
	} {
		if _, err := parseFig6([]byte(bad)); err == nil {
			t.Errorf("%s: parseFig6 accepted a malformed table", name)
		}
	}
}

func TestCheckFig6(t *testing.T) {
	want := map[string]fig6Table{"Spectre": {"k": {"A": "1.250", "B": "2.000"}}}
	ex, err := parseExport([]byte(`{"runs":[
		{"workload":"k","variant":"A","model":"Spectre","norm_time":1.2496},
		{"workload":"k","variant":"B","model":"Spectre","norm_time":2.0},
		{"workload":"k","variant":"Zoo","model":"Spectre","norm_time":9}],
		"figure6":[{"model":"Spectre","variant":"A","norm_time":1.2496}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if n, bad := checkFig6(ex, want); n != 3 || len(bad) != 0 {
		t.Errorf("matching export: %d comparisons, failures %v; want 3 and none", n, bad)
	}
	ex.Runs[1].NormTime = 2.0006
	ex.Figure6[0].NormTime = 1.3
	if _, bad := checkFig6(ex, want); len(bad) != 2 {
		t.Errorf("export with a wrong run and a wrong average: failures %v, want 2", bad)
	}
	if pct, n := fig6ErrPct(ex, want); n != 2 || math.Abs(pct-(0.0004/1.25+0.0006/2)/2*100) > 1e-9 {
		t.Errorf("fig6ErrPct = %v over %d references", pct, n)
	}
}

func TestStripAttribution(t *testing.T) {
	a, err := stripAttribution([]byte(`{"runs":[{"cycles":5,"attribution":{"wall_us":7}}],"max_instrs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := stripAttribution([]byte(`{"max_instrs":1,"runs":[{"attribution":{"wall_us":99},"cycles":5}]}`))
	if !bytes.Equal(a, b) || bytes.Contains(a, []byte("attribution")) {
		t.Errorf("stripped exports differ or keep the attribution: %s vs %s", a, b)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := report.NewRecorder("t")
	root := r.Start("root", 0)
	child := r.Start("child", root)
	r.End(child)
	r.End(root)
	other := report.NewRecorder("p")
	o := other.Start("probe", 0)
	other.End(o)
	r.Adopt(other.Finish(), root, 0)
	spans := r.Finish()
	if len(spans) != 3 || spans[2].Parent != root || spans[2].RunID != "t" {
		t.Fatalf("adopted span not re-parented under the root: %+v", spans)
	}
	dur := func(s report.Span) int64 { return s.EndUS - s.StartUS }
	if spans[0].SelfUS != dur(spans[0])-dur(spans[1])-dur(spans[2]) {
		t.Errorf("root self time %d, want duration minus children", spans[0].SelfUS)
	}
	var nilRec *report.Recorder
	nilRec.End(nilRec.Start("x", 0)) // a nil recorder records nothing and must not panic
}

// compareDocs writes two result files and compares them.
func compareDocs(t *testing.T, spec *Spec, a, b resultDoc) (string, error) {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, d := range []resultDoc{a, b} {
		js, _ := json.Marshal(d)
		p := filepath.Join(dir, string(rune('A'+i))+".json")
		if err := os.WriteFile(p, js, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var out bytes.Buffer
	err := compareFiles(spec, paths[0], paths[1], &out)
	return out.String(), err
}

func TestCompare(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{{Name: "sweep_wall_s", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "sim_kips", Unit: "kinstr/s", Better: "higher", Bound: 0.10}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	doc := func(failed int, walls ...float64) resultDoc {
		var d resultDoc
		for _, v := range walls {
			d.Runs = append(d.Runs, runRecord{Workload: "w", Attempted: 10, Failed: failed, Metrics: map[string]report.Value{
				"sweep_wall_s": {Value: v, Unit: "s"}, "sim_kips": {Value: 1000 / v, Unit: "kinstr/s"}}})
		}
		return d
	}
	steady := doc(0, 10, 10.1, 9.9, 10, 10.05, 9.95)

	out, err := compareDocs(t, spec, steady, doc(0, 10.2, 10.3, 10.1, 10.2, 10.25, 10.15))
	if err != nil || !strings.Contains(out, "within bound") {
		t.Errorf("2%% slower at a 10%% bound should pass:\n%s%v", out, err)
	}
	out, err = compareDocs(t, spec, steady, doc(0, 12, 12.1, 11.9, 12, 12.05, 11.95))
	if err == nil || strings.Count(out, "REGRESSION") != 2 {
		t.Errorf("20%% slower should fail on both metrics:\n%s%v", out, err)
	}
	out, err = compareDocs(t, spec, steady, doc(0, 8, 13, 9, 12, 10, 11))
	if err != nil || !strings.Contains(out, "unresolved") {
		t.Errorf("a spread wider than the bound should read unresolved, not pass or fail:\n%s%v", out, err)
	}
	out, err = compareDocs(t, spec, doc(0, 8, 13, 9, 12, 10, 11), doc(0, 5, 5.1, 4.9, 5, 5.05, 4.95))
	if err != nil || !strings.Contains(out, "better in every run") {
		t.Errorf("every run better than every run of A should resolve despite A's spread:\n%s%v", out, err)
	}
	if _, err = compareDocs(t, spec, steady, doc(1, 10, 10.1, 9.9, 10, 10.05, 9.95)); err == nil {
		t.Error("a rise in failed checks should fail the comparison")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload of BENCHMARK.json at tiny sizes, untraced
// and traced, through the real command line, and checks that exactly the
// declared metrics come out and every output check passes. It asserts no
// timing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("BENCHMARK.json declares a malformed metric: %+v", m)
		}
	}
	for trace, declared := range map[string][]MetricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
		out := t.TempDir()
		var stdout bytes.Buffer
		err := run([]string{"-root", "..", "-smoke", "-seconds", "0.2", "-trace", trace, "-out", out}, &stdout)
		if err != nil {
			t.Fatalf("trace=%s: %v\n%s", trace, err, stdout.String())
		}
		var lines []runLine
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(l, `{"correct"`) {
				var rl runLine
				if err := json.Unmarshal([]byte(l), &rl); err != nil {
					t.Fatalf("unreadable result line %q: %v", l, err)
				}
				lines = append(lines, rl)
			}
		}
		if len(lines) != len(spec.Workloads) {
			t.Fatalf("trace=%s: %d result lines for %d workloads", trace, len(lines), len(spec.Workloads))
		}
		for i, rl := range lines {
			wl := spec.Workloads[i].Name
			if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
				t.Errorf("trace=%s %s: correct=%v attempted=%d failed=%d", trace, wl, rl.Correct, rl.Attempted, rl.Failed)
			}
			if len(rl.Metrics) != len(declared) {
				t.Errorf("trace=%s %s: %d metrics emitted, %d declared", trace, wl, len(rl.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := rl.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("trace=%s %s: metric %s missing or unit %q, declared %q", trace, wl, m.Name, v.Unit, m.Unit)
				}
				if trace == "0" && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl, m.Name, v.Value)
				}
			}
		}
		if trace == "1" {
			// The probes report their own units; they must agree with the
			// declaration, and every probe metric must be declared.
			var doc struct {
				Spans []report.Span `json:"spans"`
			}
			b, err := os.ReadFile(filepath.Join(out, "trace.json"))
			if err != nil || json.Unmarshal(b, &doc) != nil || len(doc.Spans) == 0 {
				t.Errorf("trace.json missing or empty: %v", err)
			}
			for _, name := range []string{"pipeline.sim_cycles.mcf_r.hybrid", "simsvc.phase.simulate_ms_p50", "harness.export_ms"} {
				if !(lines[0].Metrics[name].Value > 0) {
					t.Errorf("fig6-cold traced run: %s = %v, want a measurement", name, lines[0].Metrics[name].Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "result.json")); err != nil {
			t.Errorf("trace=%s: %v", trace, err)
		}
	}
}
