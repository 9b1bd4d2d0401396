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

// auditSelf is this file: naming a telemetry name here does not use it.
var auditSelf = filepath.Join("internal", "cluster", "telemetry_test.go")

// auditEntry is one audited name: how README.md must spell it, and the
// spellings that count as a reference to it.
type auditEntry struct {
	kind, name string
	doc        *regexp.Regexp
	refs       []*regexp.Regexp
}

// TestTelemetryAudited holds the service's telemetry to the rule
// TestFlagsDocumented holds its flags to, plus one: every metric family of
// the all-on service and cluster node, every event class and every span
// phase constant is named in README.md, and is referenced by a _test.go
// file, a line of ci.yml or a file of the benchmark module. What nothing
// reads is cut, not kept. A metric family is referenced by its name; an
// event class or a span phase by its quoted name ("fault", "peer-lookup")
// or its qualified identifier (obs.ClassFault, trace.PhasePeer), so the
// span package's own tests, which use the constants as arbitrary names,
// do not count.
func TestTelemetryAudited(t *testing.T) {
	root := filepath.Join("..", "..")
	readme := readAuditFile(t, filepath.Join(root, "README.md"))
	corpus := auditCorpus(t, root)

	var entries []auditEntry
	for _, fam := range metricFamilies(startMetricsCase(t, "on")) {
		q := regexp.QuoteMeta(fam)
		entries = append(entries, auditEntry{"metric family", fam,
			regexp.MustCompile(`\b` + q + `\b`),
			[]*regexp.Regexp{regexp.MustCompile(`\b` + q + `(?:_bucket|_sum|_count)?\b`)}})
	}
	for _, class := range obs.ClassNames() {
		q := regexp.QuoteMeta(class)
		entries = append(entries, auditEntry{"event class", class,
			regexp.MustCompile("`" + q + "`"),
			[]*regexp.Regexp{regexp.MustCompile(`"` + q + `"`), regexp.MustCompile(`\bobs\.Class(?i:` + q + `)\b`)}})
	}
	for _, p := range spanPhases(t, filepath.Join(root, "internal", "obs", "trace", "trace.go")) {
		q := regexp.QuoteMeta(p.value)
		entries = append(entries, auditEntry{"span phase", p.value,
			regexp.MustCompile("`" + q + "`"),
			[]*regexp.Regexp{regexp.MustCompile(`"` + q + `"`), regexp.MustCompile(`\btrace\.` + p.ident + `\b`)}})
	}

	var undocumented, unreferenced []string
	for _, e := range entries {
		if !e.doc.MatchString(readme) {
			undocumented = append(undocumented, e.kind+" "+e.name)
		}
		used := false
		for _, re := range e.refs {
			used = used || re.MatchString(corpus)
		}
		if !used {
			unreferenced = append(unreferenced, e.kind+" "+e.name)
		}
	}
	if len(undocumented) > 0 {
		t.Errorf("%d names missing from README.md:\n\t%s", len(undocumented), strings.Join(undocumented, "\n\t"))
	}
	if len(unreferenced) > 0 {
		t.Errorf("%d names no test, ci.yml line or bench/ file references (cover each in the test that provokes it, or cut it):\n\t%s",
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
		inBench := strings.HasPrefix(rel, "bench"+string(filepath.Separator))
		if rel != auditSelf && (strings.HasSuffix(rel, "_test.go") || inBench && strings.HasSuffix(rel, ".go")) {
			b.WriteString(readAuditFile(t, path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
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
