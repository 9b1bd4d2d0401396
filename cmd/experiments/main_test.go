package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneCellTrace runs one cell with -trace in each structured format:
// the trace file parses, and stdout is the cell's counter table rather
// than the grid reports. A trace of more than one cell is refused.
func TestOneCellTrace(t *testing.T) {
	cell := []string{"-workloads", "mcf_r", "-variants", "hybrid", "-models", "futuristic",
		"-instrs", "2000", "-warmup", "1000", "-trace-events", "sdo,squash,cache"}
	for _, format := range []string{"jsonl", "chrome"} {
		path := filepath.Join(t.TempDir(), "trace."+format)
		var stdout, stderr bytes.Buffer
		args := append(append([]string(nil), cell...), "-trace", path, "-trace-format", format)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, stderr.String())
		}
		out := stdout.String()
		if !strings.HasPrefix(out, "Hybrid on mcf_r (Futuristic model), ") ||
			!strings.Contains(out, "Obl-Ld success / fail") || strings.Contains(out, "Figure") {
			t.Errorf("%s: stdout is not the one-cell counter table:\n%s", format, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		switch format {
		case "jsonl":
			sc := bufio.NewScanner(bytes.NewReader(b))
			for sc.Scan() {
				var ev map[string]any
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatalf("jsonl line %d: %v", events+1, err)
				}
				events++
			}
		case "chrome":
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("chrome trace: %v", err)
			}
			events = len(doc.TraceEvents)
		}
		if events == 0 {
			t.Errorf("%s trace holds no events", format)
		}
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-workloads", "mcf_r", "-models", "futuristic", "-instrs", "2000",
		"-trace", filepath.Join(t.TempDir(), "t.jsonl")}
	if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "one detailed cell") {
		t.Errorf("a traced grid: exit %d, stderr %q; want a refusal", code, stderr.String())
	}
}
