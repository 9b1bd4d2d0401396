package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// fig6Table is one Figure 6 table of expected_results.txt:
// benchmark -> variant -> normalized time exactly as printed (3 decimals).
// The "Avg" row is kept under that name.
type fig6Table map[string]map[string]string

var (
	fig6Title = regexp.MustCompile(`^FIGURE 6 \((\w+) model\)`)
	colSplit  = regexp.MustCompile(`\s{2,}`)
)

// parseFig6 extracts the two Figure 6 tables (keyed by attack model name,
// "Spectre" and "Futuristic") from expected_results.txt. Columns are
// separated by two or more spaces because variant names contain single
// spaces ("Static L1").
func parseFig6(text []byte) (map[string]fig6Table, error) {
	out := map[string]fig6Table{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	var cur fig6Table
	var cols []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := fig6Title.FindStringSubmatch(line); m != nil {
			cur, cols = fig6Table{}, nil
			out[m[1]] = cur
			continue
		}
		if cur == nil {
			continue
		}
		if line == "" {
			cur = nil
			continue
		}
		f := colSplit.Split(line, -1)
		if cols == nil {
			if f[0] != "benchmark" {
				return nil, fmt.Errorf("figure 6 table: header %q does not start with \"benchmark\"", line)
			}
			cols = f[1:]
			continue
		}
		if len(f) != len(cols)+1 {
			return nil, fmt.Errorf("figure 6 table: row %q has %d columns, header has %d", line, len(f), len(cols)+1)
		}
		row := map[string]string{}
		for i, c := range cols {
			if _, err := strconv.ParseFloat(f[i+1], 64); err != nil {
				return nil, fmt.Errorf("figure 6 table: row %q: %v", line, err)
			}
			row[c] = f[i+1]
		}
		cur[f[0]] = row
	}
	for _, m := range []string{"Spectre", "Futuristic"} {
		if len(out[m]) == 0 {
			return nil, fmt.Errorf("expected results: no Figure 6 table for the %s model", m)
		}
	}
	return out, nil
}

// sweepExport is the part of the server's export document the output
// checks read.
type sweepExport struct {
	Runs []struct {
		Workload string  `json:"workload"`
		Variant  string  `json:"variant"`
		Model    string  `json:"model"`
		Cycles   uint64  `json:"cycles"`
		NormTime float64 `json:"norm_time"`
	} `json:"runs"`
	Figure6 []struct {
		Model    string  `json:"model"`
		Variant  string  `json:"variant"`
		NormTime float64 `json:"norm_time"`
	} `json:"figure6"`
}

func parseExport(b []byte) (*sweepExport, error) {
	var ex sweepExport
	if err := json.Unmarshal(b, &ex); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return &ex, nil
}

// checkFig6 compares every run of a detailed export that has a row in the
// expected tables against it at the 3 printed decimals, and checks that
// each figure6 average is the mean of the export's own runs (the table's
// "Avg" row covers all 14 kernels, so it cannot be compared against an
// export of a kernel subset). It returns the number of comparisons made
// and one message per mismatch.
func checkFig6(ex *sweepExport, want map[string]fig6Table) (n int, bad []string) {
	sums := map[[2]string][2]float64{} // (model, variant) -> sum, count
	for _, r := range ex.Runs {
		k := [2]string{r.Model, r.Variant}
		s := sums[k]
		sums[k] = [2]float64{s[0] + r.NormTime, s[1] + 1}
		exp, ok := want[r.Model][r.Workload][r.Variant]
		if !ok {
			continue // scheme outside Table II: no reference
		}
		n++
		if got := strconv.FormatFloat(r.NormTime, 'f', 3, 64); got != exp {
			bad = append(bad, fmt.Sprintf("%s/%s/%s norm_time %s, expected_results.txt says %s",
				r.Workload, r.Variant, r.Model, got, exp))
		}
	}
	for _, f := range ex.Figure6 {
		s := sums[[2]string{f.Model, f.Variant}]
		n++
		if s[1] == 0 || math.Abs(f.NormTime-s[0]/s[1]) > 1e-9 {
			bad = append(bad, fmt.Sprintf("figure6 %s/%s average %v is not the mean of its runs", f.Variant, f.Model, f.NormTime))
		}
	}
	return n, bad
}

// fig6ErrPct is the mean absolute relative error, in percent, of an
// export's per-run norm_time against the expected tables, over the runs
// that have a reference. Simulated and deterministic for a given seed.
func fig6ErrPct(ex *sweepExport, want map[string]fig6Table) (pct float64, n int) {
	var sum float64
	for _, r := range ex.Runs {
		exp, ok := want[r.Model][r.Workload][r.Variant]
		if !ok {
			continue
		}
		ref, _ := strconv.ParseFloat(exp, 64)
		sum += math.Abs(r.NormTime-ref) / ref
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n) * 100, n
}

// stripAttribution removes the per-run "attribution" object a traced
// server adds to exports (wall-clock timings, different on every run), so
// traced exports can still be compared for identity. Both sides of a
// comparison go through it, so the re-encoding is harmless.
func stripAttribution(b []byte) ([]byte, error) {
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	if runs, ok := doc["runs"].([]any); ok {
		for _, r := range runs {
			if m, ok := r.(map[string]any); ok {
				delete(m, "attribution")
			}
		}
	}
	return json.Marshal(doc)
}
