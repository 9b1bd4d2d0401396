package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiKeep lists the exported names under internal/ that no non-test file
// but their own mentions, each with why it stays. The audit fails on a
// row whose name has since gained a user or gone, so the list only
// shrinks. Rows marked "test-only" name a symbol only tests use: each is
// to move into the test that uses it, or go.
var apiKeep = map[string]string{
	"attack.RunLVI":              "test-only: TestAttackDefenseMatrix runs the LVI attack through it",
	"core.SDOVariants":           "test-only: the core, harness and root tests iterate the SDO rows through it",
	"fabric.DefaultBreakerOpens": "test-only: simsvc's dead-peer test bounds its peer-error events by it",
	"isa.Builder.FSub":           "test-only: arch's executor tests assemble with it",
	"isa.Builder.Nop":            "test-only: arch's and pipeline's tests assemble with it",
	"isa.Builder.Raw":            "test-only: arch's executor tests assemble with it",
	"isa.IsSubnormalBits":        "test-only: the isa and workload tests classify FP operands with it",
	"harness.Results.Export":     "the JSON export document WriteJSON renders; the service's tests compare exports field by field through it",
	"obs/trace.RootName":         "test-only: simsvc's trace tests find each cell's root span by it",
	"pipeline.OccupancyBuckets":  "test-only: core's interval test checks the occupancy histograms' length by it",
}

// stdlibCalled are method names the standard library calls through an
// interface (error, fmt.Stringer, errors.Unwrap, http.Handler): a method
// so named is used without its name appearing at the call site.
var stdlibCalled = map[string]bool{"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true}

// apiDecl is one exported function, method, type, constant or variable.
type apiDecl struct {
	name string // "pkg.Func", "pkg.Type" or "pkg.Type.Method"
	id   string // the identifier a user writes
	file string
	pkg  string
	typ  bool
	// sig holds the identifiers of the declaration's signature or type
	// definition: a type named there is used by whoever uses this one.
	sig map[string]bool
	// of names a constant's own package type ("" otherwise): the
	// constant is one value of that enumeration, used with the type.
	of string
}

// TestExportedAPIHasUsers is the API ratchet: every exported function,
// method, type, constant and variable declared under internal/ is named
// by some non-test Go file other than its own — in this module or the
// benchmark module — or has an apiKeep row saying why it stays. A type
// also counts as used when
// the signature or definition of a used name of its package mentions it:
// a caller holding the value uses the type without spelling it. A
// constant of a used type of its package counts as used: it is one value
// of that enumeration. Names are matched as identifiers, not resolved by
// type: two methods sharing a name vouch for each other, so the audit can
// miss an unused name but never flags a used one.
func TestExportedAPIHasUsers(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	usedIn := map[string]map[string]bool{} // identifier -> files naming it
	var decls []apiDecl
	walkGo(t, root, func(rel, path string) error {
		if strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][rel] = true
			}
			return true
		})
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/"); ok {
			decls = append(decls, exportedDecls(f, pkg, rel)...)
		}
		return nil
	})

	used := make([]bool, len(decls))
	for i, d := range decls {
		for file := range usedIn[d.id] {
			used[i] = used[i] || file != d.file
		}
	}
	// A kept name counts as used: the types its signature needs stay
	// with it.
	kept := map[string]bool{}
	for i, d := range decls {
		if !used[i] && apiKeep[d.name] != "" {
			used[i], kept[d.name] = true, true
		}
	}
	for grew := true; grew; {
		grew = false
		for i, d := range decls {
			for j, e := range decls {
				if used[j] && !used[i] && e.pkg == d.pkg && (d.typ && e.sig[d.id] || e.typ && e.id == d.of) {
					used[i], grew = true, true
				}
			}
		}
	}
	var unused []string
	for i, d := range decls {
		if !used[i] {
			unused = append(unused, d.name+" ("+d.file+")")
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported names have no non-test user outside their own file (use them, unexport them, move them into their test, or add an apiKeep row):\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for name := range apiKeep {
		if !kept[name] {
			t.Errorf("apiKeep row %s names nothing left to keep: delete the row", name)
		}
	}
}

// exportedDecls lists f's exported functions, types, constants,
// variables and methods on exported types, qualified by pkg.
func exportedDecls(f *ast.File, pkg, file string) []apiDecl {
	var out []apiDecl
	add := func(name, id string, typ bool, sig ast.Node, of string) {
		ids := map[string]bool{}
		ast.Inspect(sig, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				ids[id.Name] = true
			}
			return true
		})
		out = append(out, apiDecl{pkg + "." + name, id, file, pkg, typ, ids, of})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(d.Name.Name, d.Name.Name, false, d.Type, "")
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch ix := recv.(type) {
			case *ast.IndexExpr:
				recv = ix.X
			case *ast.IndexListExpr:
				recv = ix.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() && !stdlibCalled[d.Name.Name] {
				add(id.Name+"."+d.Name.Name, d.Name.Name, false, d.Type, "")
			}
		case *ast.GenDecl:
			of := "" // a const spec with no type and no value repeats the last
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						add(sp.Name.Name, sp.Name.Name, true, sp.Type, "")
					}
				case *ast.ValueSpec:
					if id, ok := sp.Type.(*ast.Ident); ok && d.Tok == token.CONST {
						of = id.Name
					} else if sp.Type != nil || len(sp.Values) > 0 {
						of = ""
					}
					for _, n := range sp.Names {
						if n.IsExported() {
							add(n.Name, n.Name, false, sp, of)
						}
					}
				}
			}
		}
	}
	return out
}
