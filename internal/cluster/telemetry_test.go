package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simsvc"
)

// auditSelf is this file: naming an audited name here does not use it.
var auditSelf = filepath.Join("internal", "cluster", "telemetry_test.go")

// auditEntry is one audited name: how README.md must spell it, and
// whether anything exercises it.
type auditEntry struct {
	kind, name string
	doc        *regexp.Regexp
	used       bool
}

// TestTelemetryAudited holds the service's telemetry and its operator
// surface to the rule TestFlagsDocumented holds its flags to, plus one:
// every metric family of the all-on service and cluster node, every event
// class, every span phase constant, every HTTP route the service and the
// cluster node register and every sdoctl subcommand is named in
// README.md, and is exercised by a _test.go file, a line of ci.yml or a
// file of the benchmark module. What nothing reads is cut, not kept.
//
// A metric family is referenced by its name; an event class or a span
// phase by its quoted name ("fault", "peer-lookup") or its qualified
// identifier (obs.ClassFault, trace.PhasePeer), so the span package's
// own tests, which use the constants as arbitrary names, do not count.
// A route is requested by a Go string expression or a ci.yml line naming
// its path with its method (http.MethodPost, -X POST; none is a GET); a
// {id} or {key} segment matches any one segment, and a non-test Go file
// other than the one registering the route counts too (the steal
// protocol's RPCs, fabric's lookups and probes, sdoctl). A subcommand is
// invoked by a quoted argument in sdoctl's tests or an sdoctl line of
// ci.yml.
func TestTelemetryAudited(t *testing.T) {
	root := filepath.Join("..", "..")
	readme := readAuditFile(t, filepath.Join(root, "README.md"))
	corpus := auditCorpus(t, root)
	used := func(refs ...*regexp.Regexp) bool {
		for _, re := range refs {
			if re.MatchString(corpus) {
				return true
			}
		}
		return false
	}

	var entries []auditEntry
	for _, fam := range metricFamilies(startMetricsCase(t, "on")) {
		q := regexp.QuoteMeta(fam)
		entries = append(entries, auditEntry{"metric family", fam,
			regexp.MustCompile(`\b` + q + `\b`),
			used(regexp.MustCompile(`\b` + q + `(?:_bucket|_sum|_count)?\b`))})
	}
	for _, class := range obs.ClassNames() {
		q := regexp.QuoteMeta(class)
		entries = append(entries, auditEntry{"event class", class,
			regexp.MustCompile("`" + q + "`"),
			used(regexp.MustCompile(`"`+q+`"`), regexp.MustCompile(`\bobs\.Class(?i:`+q+`)\b`))})
	}
	for _, p := range spanPhases(t, filepath.Join(root, "internal", "obs", "trace", "trace.go")) {
		q := regexp.QuoteMeta(p.value)
		entries = append(entries, auditEntry{"span phase", p.value,
			regexp.MustCompile("`" + q + "`"),
			used(regexp.MustCompile(`"`+q+`"`), regexp.MustCompile(`\btrace\.`+p.ident+`\b`))})
	}
	requests := requestLines(t, root)
	for _, rt := range registeredRoutes(t, root) {
		path := regexp.MustCompile(`(?:^|[^A-Za-z_.-]|\$\{?\w+\}?|%[sv])` + routePath(rt.path) + `(?:[^\w/.-]|$)`)
		requested := false
		for _, l := range requests {
			requested = requested || l.method == rt.method && l.file != rt.file && path.MatchString(l.text)
		}
		entries = append(entries, auditEntry{"route", rt.method + " " + rt.path,
			regexp.MustCompile(regexp.QuoteMeta(rt.method+" "+rt.path) + `(?:[^\w/{}-]|$)`), requested})
	}
	ctlTests := sdoctlTestStrings(t, root)
	for _, sub := range sdoctlSubcommands(t, root) {
		q := regexp.QuoteMeta(sub)
		entries = append(entries, auditEntry{"sdoctl subcommand", sub,
			regexp.MustCompile(`sdoctl (?:-server \S+ )?` + q + `\b`),
			ctlTests[sub] || used(regexp.MustCompile(`(?m)^[^#\n]*sdoctl\S* (?:-server \S+ )?`+q+`\b`))})
	}

	var undocumented, unreferenced []string
	for _, e := range entries {
		if !e.doc.MatchString(readme) {
			undocumented = append(undocumented, e.kind+" "+e.name)
		}
		if !e.used {
			unreferenced = append(unreferenced, e.kind+" "+e.name)
		}
	}
	if len(undocumented) > 0 {
		t.Errorf("%d names missing from README.md:\n\t%s", len(undocumented), strings.Join(undocumented, "\n\t"))
	}
	if len(unreferenced) > 0 {
		t.Errorf("%d names no test, ci.yml line or bench/ file exercises (cover each in the test that provokes it, or cut it):\n\t%s",
			len(unreferenced), strings.Join(unreferenced, "\n\t"))
	}
}

func readAuditFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// auditCorpus concatenates what may reference a telemetry name: every
// _test.go file but this one, every Go file of the benchmark module, and
// the CI workflow.
func auditCorpus(t *testing.T, root string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(readAuditFile(t, filepath.Join(root, ".github", "workflows", "ci.yml")))
	walkGo(t, root, func(rel, path string) error {
		inBench := strings.HasPrefix(rel, "bench"+string(filepath.Separator))
		if rel != auditSelf && (strings.HasSuffix(rel, "_test.go") || inBench) {
			b.WriteString(readAuditFile(t, path))
		}
		return nil
	})
	return b.String()
}

// walkGo calls fn with the root-relative and the full path of every Go
// file under root, skipping dot directories and testdata.
func walkGo(t *testing.T, root string, fn func(rel, path string) error) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") {
			return fn(rel, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// metricFamilies lists the families svc's /metrics declares, by name.
func metricFamilies(svc *simsvc.Service) []string {
	var out []string
	for _, l := range strings.Split(metricsPreamble(svc), "\n") {
		if decl, ok := strings.CutPrefix(l, "# TYPE "); ok {
			out = append(out, strings.Fields(decl)[0])
		}
	}
	return out
}

// spanPhase is one string constant of the span package.
type spanPhase struct{ ident, value string }

// spanPhases parses the span package's source for its string constants —
// the span names — in declaration order.
func spanPhases(t *testing.T, path string) []spanPhase {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []spanPhase
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, spanPhase{name.Name, v})
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no span phase constants in %s", path)
	}
	return out
}

// route is one pattern a ServeMux registers: "METHOD /path".
type route struct{ method, path, file string }

// registeredRoutes parses simsvc/http.go and cluster/proxy.go for every
// mux.Handle/HandleFunc pattern that names a method (the cluster's
// catch-all "/" names none: it routes to the service's own routes).
func registeredRoutes(t *testing.T, root string) []route {
	t.Helper()
	var out []route
	for _, rel := range []string{filepath.Join("internal", "simsvc", "http.go"), filepath.Join("internal", "cluster", "proxy.go")} {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				pattern, _ := strconv.Unquote(lit.Value)
				if method, path, ok := strings.Cut(pattern, " "); ok {
					out = append(out, route{method, path, rel})
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatal("no routes registered in simsvc/http.go or cluster/proxy.go")
	}
	return out
}

// routePath turns a route path into a pattern: a {name} segment matches
// any one segment.
func routePath(path string) string {
	segs := strings.Split(path, "/")
	for i, seg := range segs {
		if strings.HasPrefix(seg, "{") && strings.HasSuffix(seg, "}") {
			segs[i] = `[^/\s"'?#]+`
		} else {
			segs[i] = regexp.QuoteMeta(seg)
		}
	}
	return strings.Join(segs, "/")
}

// requestLine is one place that may send a request: the text naming a
// path, the method its line names, and the file it is in.
type requestLine struct{ file, method, text string }

var (
	postRe   = regexp.MustCompile(`(?i)(?:\b|method)post\b`)
	deleteRe = regexp.MustCompile(`(?i)(?:\b|method)delete\b`)
)

// lineMethod is the HTTP method a line of code or shell names; a line
// naming none sends a GET.
func lineMethod(line string) string {
	switch {
	case postRe.MatchString(line):
		return "POST"
	case deleteRe.MatchString(line):
		return "DELETE"
	}
	return "GET"
}

// requestLines collects every string expression of every Go file (this
// one excepted), with the method its line names, and every non-comment
// line of ci.yml. A string expression is a literal or a + chain holding
// one; each non-literal operand stands in as one NUL byte, so
// url+"/sweeps/"+id reads "\x00/sweeps/\x00".
func requestLines(t *testing.T, root string) []requestLine {
	t.Helper()
	var out []requestLine
	ci := filepath.Join(".github", "workflows", "ci.yml")
	for _, l := range strings.Split(readAuditFile(t, filepath.Join(root, ci)), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(l), "#") {
			out = append(out, requestLine{ci, lineMethod(l), l})
		}
	}
	walkGo(t, root, func(rel, path string) error {
		if rel == auditSelf {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments { // a comment names no method
			for i := fset.Position(cg.Pos()).Offset; i < fset.Position(cg.End()).Offset; i++ {
				if src[i] != '\n' {
					src[i] = ' '
				}
			}
		}
		lines := strings.Split(string(src), "\n")
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			text, lit := flattenString(e)
			if !lit || !strings.Contains(text, "/") {
				return !lit
			}
			line := lines[fset.Position(e.Pos()).Line-1]
			out = append(out, requestLine{rel, lineMethod(line), text})
			return false
		})
		return nil
	})
	return out
}

// flattenString renders a string literal or a + chain of operands, and
// reports whether it holds a string literal at all.
func flattenString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		}
	case *ast.ParenExpr:
		return flattenString(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			l, a := flattenString(e.X)
			r, b := flattenString(e.Y)
			return l + r, a || b
		}
	}
	return "\x00", false
}

// sdoctlSubcommands parses cmd/sdoctl/main.go for the cases of run's
// switch on the command name.
func sdoctlSubcommands(t *testing.T, root string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "cmd", "sdoctl", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		if id, ok := sw.Tag.(*ast.Ident); !ok || id.Name != "cmd" {
			return true
		}
		for _, stmt := range sw.Body.List {
			for _, e := range stmt.(*ast.CaseClause).List {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					out = append(out, name)
				}
			}
		}
		return false
	})
	if len(out) == 0 {
		t.Fatal("no subcommands in cmd/sdoctl/main.go")
	}
	return out
}

// sdoctlTestStrings is the set of string literals in sdoctl's tests: a
// subcommand's name among them is an argument the tests pass to run.
func sdoctlTestStrings(t *testing.T, root string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "cmd", "sdoctl", "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				out[s] = true
			}
			return true
		})
	}
	return out
}
