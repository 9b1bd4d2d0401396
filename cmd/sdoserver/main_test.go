package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestFlagsDocumented audits the command's surface against the docs:
// every registered flag is documented in README.md as `-name` (optionally
// followed by an argument placeholder), and the names of the removed
// speculation, deadline-auto-tuning and peer-tuning surface appear in no
// operator document.
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
