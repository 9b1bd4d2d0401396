package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

func readResult(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// samples returns, for one workload, each metric's values over the
// untraced (trace=false) or traced runs of a result file.
func (d *resultDoc) samples(workload string, traced bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range d.Runs {
		if r.Workload == workload && r.Trace == traced {
			for k, v := range r.Metrics {
				out[k] = append(out[k], v.Value)
			}
		}
	}
	return out
}

func (d *resultDoc) failedFrac(workload string) float64 {
	var failed, attempted float64
	for _, r := range d.Runs {
		if r.Workload == workload {
			failed += float64(r.Failed)
			attempted += float64(r.Attempted)
		}
	}
	return ratio(failed, attempted)
}

// simulated reports whether a per-layer metric is a simulated statistic
// that must repeat exactly between two builds of the same model.
func simulated(name string) bool {
	return strings.HasPrefix(name, "pipeline.sim_cycles.") || name == "harness.sampled_fig6_err_pct"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change and the bound from BENCHMARK.json, and returns an
// error when B is worse than A beyond a bound, fails more checks, or
// changes a simulated statistic. A metric whose run-to-run spread in
// either file exceeds its bound is reported as unresolved rather than
// unchanged, unless every run of B is better than every run of A.
func compareFiles(spec *Spec, pathA, pathB string, w io.Writer) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Header.Dirty || b.Header.Dirty {
		fmt.Fprintln(w, "WARNING: at least one input was measured on a tree with uncommitted changes")
	}
	fmt.Fprintf(w, "A: %s  %s (%d runs)\nB: %s  %s (%d runs)\n", pathA, a.Header.GitSHA, len(a.Runs), pathB, b.Header.GitSHA, len(b.Runs))
	fmt.Fprintf(w, "%-14s %-13s %13s %13s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse by", "bound", "spread A", "spread B", "verdict")
	var problems []string
	for _, wl := range spec.workloadNames() {
		sa, sb := a.samples(wl, false), b.samples(wl, false)
		for _, m := range spec.EndToEnd {
			va, vb := sa[m.Name], sb[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse > 0 means B is worse than A, as a share of A.
			worse := (mb - ma) / ma
			allBetter := slices.Max(vb) < slices.Min(va)
			if m.Better == "higher" {
				worse = -worse
				allBetter = slices.Min(vb) > slices.Max(va)
			}
			spA, spB := quartileSpread(va), quartileSpread(vb)
			verdict := "within bound"
			switch {
			case (spA > m.Bound || spB > m.Bound) && !allBetter:
				verdict = "unresolved (spread exceeds bound)"
			case worse > m.Bound:
				verdict = "REGRESSION"
				problems = append(problems, fmt.Sprintf("%s %s worse by %.1f%% (bound %.0f%%)", wl, m.Name, worse*100, m.Bound*100))
			case allBetter:
				verdict = "better in every run"
			}
			fmt.Fprintf(w, "%-14s %-13s %13.6g %13.6g %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s (n=%d,%d %s)\n",
				wl, m.Name, ma, mb, worse*100, m.Bound*100, spA*100, spB*100, verdict, len(va), len(vb), m.Unit)
		}
		if fa, fb := a.failedFrac(wl), b.failedFrac(wl); fb > fa {
			problems = append(problems, fmt.Sprintf("%s failed share of checks rose from %g to %g", wl, fa, fb))
		}
		ta, tb := a.samples(wl, true), b.samples(wl, true)
		for name, va := range ta {
			if vb := tb[name]; simulated(name) && len(vb) > 0 && a.Header.Seed == b.Header.Seed && va[0] != vb[0] {
				problems = append(problems, fmt.Sprintf("%s %s is simulated and changed: %v -> %v", wl, name, va[0], vb[0]))
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d regressions", len(problems))
	}
	return nil
}
