package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestFlagsDocumented audits the command's surface against the docs:
// every registered flag is documented in README.md as `-name` (optionally
// followed by an argument placeholder), and the names of the removed
// speculation, deadline-auto-tuning, peer-tuning, telemetry,
// fault-injection and cell-retry surface appear in no operator document.
func TestFlagsDocumented(t *testing.T) {
	root := filepath.Join("..", "..")
	read := func(rel string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	readme := read("README.md")
	fs := flag.NewFlagSet("sdoserver", flag.ContinueOnError)
	registerFlags(fs)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if !regexp.MustCompile("`-" + regexp.QuoteMeta(f.Name) + "[` ]").MatchString(readme) {
			t.Errorf("flag -%s is not documented in README.md", f.Name)
		}
	})
	if n == 0 {
		t.Fatal("registerFlags registered nothing")
	}

	// Spelled in halves so a repo-wide grep for the removed names finds
	// only the history files, not this test.
	gone := []*regexp.Regexp{
		regexp.MustCompile("-spec" + "ulate"),
		regexp.MustCompile("-spec" + "-budget"),
		regexp.MustCompile("-spec" + "-journal"),
		regexp.MustCompile("-auto" + "-timeout"),
		regexp.MustCompile("spec" + "exec"),
		regexp.MustCompile(`/spec([^a-zA-Z.]|$)`), // the endpoint, not a spec.go path
		regexp.MustCompile("-peer" + "-timeout"),
		regexp.MustCompile("-peer" + "-hedge"),
		regexp.MustCompile("-peer" + "-fanout"),
		regexp.MustCompile("-peer" + "-probe"),
		regexp.MustCompile("-no-check" + "point-reuse"),
		regexp.MustCompile("-trace" + "-jobs"),
		regexp.MustCompile(`(^|[^a-z])-fli` + `ght\b`), // the flag, not "in-flight"
		regexp.MustCompile("-cache" + `-max([^-]|$)`),  // the entry bound, not -cache-max-bytes
		regexp.MustCompile("/cluster" + "/trace"),
		regexp.MustCompile(`(^|[^a-z])-fau` + `lts\b`), // the flag, not a hyphenated word
		regexp.MustCompile("SDO_" + "FAULTS"),
		regexp.MustCompile("sdo_faults" + "_injected"),
		regexp.MustCompile(`(^|[^a-z])-toler` + `ate\b`), // experiments' flag
		regexp.MustCompile("-max" + "-attempts"),
		regexp.MustCompile("-retry" + "-backoff"),
		regexp.MustCompile("-stall" + "-timeout"),
		regexp.MustCompile("retry" + "-storm"),
		regexp.MustCompile("sdo_runs" + "_retried"),
		regexp.MustCompile("sdo_cell" + "_stalls"),
	}
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		filepath.Join(".github", "workflows", "ci.yml"),
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
	} {
		text := read(doc)
		for _, re := range gone {
			if loc := re.FindStringIndex(text); loc != nil {
				t.Errorf("%s still mentions removed surface %q", doc, text[loc[0]:loc[1]])
			}
		}
	}
}

// TestDocsOnBudget holds each operator document to the one question it
// answers: README.md how to run this, DESIGN.md how each live mechanism
// works, the verify skill one current checklist. History belongs in
// CHANGES.md; a document over its budget is growing one.
func TestDocsOnBudget(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, d := range []struct {
		rel   string
		lines bool // budget in lines rather than bytes
		max   int
	}{
		{"README.md", false, 25000},
		{"DESIGN.md", false, 50000},
		{filepath.Join(".claude", "skills", "verify", "SKILL.md"), true, 150},
	} {
		b, err := os.ReadFile(filepath.Join(root, d.rel))
		if err != nil {
			t.Fatal(err)
		}
		n, unit := len(b), "bytes"
		if d.lines {
			n, unit = bytes.Count(b, []byte("\n")), "lines"
		}
		if n > d.max {
			t.Errorf("%s is %d %s, over its budget of %d", d.rel, n, unit, d.max)
		}
	}
}
