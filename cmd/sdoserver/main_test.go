package main

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestFlagsDocumented audits the commands' surface against the docs:
// every flag a cmd/*/main.go registers — on the flag package or on a
// FlagSet, sdoctl's global and per-subcommand flags included, and the
// request flags harness.RequestFlags binds for it — is documented in
// README.md as `-name` (optionally followed, after a space or a line
// wrap, by an argument placeholder), and the names of the
// removed speculation, deadline-auto-tuning, peer-tuning, telemetry,
// fault-injection, cell-retry and single-run-command surface appear in no
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
	flags := registeredFlags(t, root)
	if len(flags) != 4 {
		t.Errorf("found flags in %d commands, want each of the four: %v", len(flags), flags)
	}
	for cmd, names := range flags {
		for _, name := range names {
			if !regexp.MustCompile("`-" + regexp.QuoteMeta(name) + "[`\\s]").MatchString(readme) {
				t.Errorf("%s: flag -%s is not documented in README.md", cmd, name)
			}
		}
	}
	// The scan must see what the server really registers.
	fs := flag.NewFlagSet("sdoserver", flag.ContinueOnError)
	registerFlags(fs)
	var live []string
	fs.VisitAll(func(f *flag.Flag) { live = append(live, f.Name) })
	if len(live) == 0 || !slices.Equal(live, flags["sdoserver"]) {
		t.Errorf("sdoserver registers %v, the source scan found %v", live, flags["sdoserver"])
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
		regexp.MustCompile("sdo" + "sim"),        // folded into experiments
		regexp.MustCompile("-interval" + "-out"), // the export carries the series
		regexp.MustCompile("-abla" + "tions"),    // sdoctl submit's old spelling
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

// flagDefiners are the flag package's and FlagSet's flag-defining
// methods; the *Var ones take the flag's name second.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
	"BoolVar": true, "DurationVar": true, "Float64Var": true, "IntVar": true, "Int64Var": true,
	"StringVar": true, "TextVar": true, "UintVar": true, "Uint64Var": true, "Var": true,
}

// registeredFlags parses every cmd/*/main.go for flag definitions, by
// command: calls of a defining method on the flag package, or on a
// FlagSet the enclosing function received as a *flag.FlagSet parameter
// or made with flag.NewFlagSet. A command that calls harness.RequestFlags
// gets the flags that binder defines on a live FlagSet. A flag name that
// is not a string literal fails the test, so no definition hides from
// the audit.
func registeredFlags(t *testing.T, root string) map[string][]string {
	t.Helper()
	bound := flag.NewFlagSet("request", flag.ContinueOnError)
	harness.RequestFlags(bound)
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sets := map[string]bool{"flag": true}
			for _, p := range fn.Type.Params.List {
				if star, ok := p.Type.(*ast.StarExpr); ok && isFlagSel(star.X, "FlagSet") {
					for _, n := range p.Names {
						sets[n.Name] = true
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
					for i, rhs := range as.Rhs {
						if call, ok := rhs.(*ast.CallExpr); ok && isFlagSel(call.Fun, "NewFlagSet") {
							if id, ok := as.Lhs[i].(*ast.Ident); ok {
								sets[id.Name] = true
							}
						}
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if ok && isSel(sel, "harness", "RequestFlags") {
					bound.VisitAll(func(f *flag.Flag) { out[cmd] = append(out[cmd], f.Name) })
					return true
				}
				if !ok || !flagDefiners[sel.Sel.Name] {
					return true
				}
				if recv, ok := sel.X.(*ast.Ident); !ok || !sets[recv.Name] {
					return true
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1
				}
				lit, ok := call.Args[arg].(*ast.BasicLit)
				name, err := "", error(nil)
				if ok && lit.Kind == token.STRING {
					name, err = strconv.Unquote(lit.Value)
				}
				if !ok || err != nil {
					t.Errorf("%s: flag name at %s is not a string literal", cmd, fset.Position(call.Pos()))
					return true
				}
				out[cmd] = append(out[cmd], name)
				return true
			})
		}
		slices.Sort(out[cmd]) // sdoctl's export and trace both take -o
		out[cmd] = slices.Compact(out[cmd])
	}
	return out
}

// isFlagSel reports whether e is flag.<name>.
func isFlagSel(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && isSel(sel, "flag", name)
}

// isSel reports whether sel is pkg.name.
func isSel(sel *ast.SelectorExpr, pkg, name string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
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
