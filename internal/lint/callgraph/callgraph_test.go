package callgraph_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/callgraph"
)

// buildProgram type-checks the given single-file packages (path ->
// source) in the listed order (dependencies first) and returns the
// graph. Imports between the given packages resolve in-memory; anything
// else falls back to the source importer (stdlib).
func buildProgram(t *testing.T, order []string, srcs map[string]string) *callgraph.Graph {
	t.Helper()
	fset := token.NewFileSet()
	built := make(map[string]*types.Package)
	var pkgs []*callgraph.Package
	imp := &mapImporter{built: built, fallback: importer.ForCompiler(fset, "source", nil)}
	for _, path := range order {
		src, ok := srcs[path]
		if !ok {
			t.Fatalf("no source for %s", path)
		}
		f, err := parser.ParseFile(fset, path+"/a.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		built[path] = pkg
		pkgs = append(pkgs, &callgraph.Package{Path: path, Dir: path, Files: []*ast.File{f}, Types: pkg, Info: info})
	}
	return callgraph.Build(fset, pkgs)
}

type mapImporter struct {
	built    map[string]*types.Package
	fallback types.Importer
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.built[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// nodeByName finds a node whose qualified name ends with suffix.
func nodeByName(t *testing.T, g *callgraph.Graph, suffix string) *callgraph.Node {
	t.Helper()
	var found *callgraph.Node
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Name, suffix) {
			if found != nil {
				t.Fatalf("ambiguous node suffix %q (%s and %s)", suffix, found.Name, n.Name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node matching %q; have %v", suffix, names(g))
	}
	return found
}

func names(g *callgraph.Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		out = append(out, n.Name)
	}
	sort.Strings(out)
	return out
}

// hasEdge reports whether from has any edge to to.
func hasEdge(g *callgraph.Graph, from, to *callgraph.Node) bool {
	for _, e := range g.Out(from.ID) {
		if e.To == to.ID {
			return true
		}
	}
	return false
}

func TestCrossPackageCallEdge(t *testing.T) {
	g := buildProgram(t, []string{"example.com/b", "example.com/a"}, map[string]string{
		"example.com/b": `package b
func G() int { return 1 }
`,
		"example.com/a": `package a
import "example.com/b"
func F() int { return b.G() }
`,
	})
	f := nodeByName(t, g, "example.com/a.F")
	gg := nodeByName(t, g, "example.com/b.G")
	if !hasEdge(g, f, gg) {
		t.Fatalf("missing cross-package call edge a.F -> b.G")
	}
}

func TestMethodValueAndClosureEdges(t *testing.T) {
	g := buildProgram(t, []string{"example.com/m"}, map[string]string{
		"example.com/m": `package m
type T struct{}
func (T) M() {}
func helper() {}
func F() {
	t := T{}
	h := t.M       // method value: may run wherever h flows
	use(h)
	fn := func() { // closure node, body owns the helper call
		helper()
	}
	fn()
}
func use(func()) {}
`,
	})
	f := nodeByName(t, g, "m.F")
	m := nodeByName(t, g, "m.T.M")
	if !hasEdge(g, f, m) {
		t.Fatalf("missing method-value reference edge F -> T.M")
	}
	helper := nodeByName(t, g, "m.helper")
	if hasEdge(g, f, helper) {
		t.Fatalf("helper call belongs to the closure node, not to F directly")
	}
	// F reaches helper through exactly one closure edge into the
	// literal's node, which owns the call.
	var closures []*callgraph.Node
	for _, e := range g.Out(f.ID) {
		if e.Kind == callgraph.EdgeClosure {
			closures = append(closures, g.Nodes[e.To])
		}
	}
	if len(closures) != 1 || closures[0].Lit == nil {
		t.Fatalf("want one closure edge out of F into a literal node, got %d", len(closures))
	}
	if !hasEdge(g, closures[0], helper) {
		t.Fatalf("closure node should own the helper() call edge")
	}
}

func TestInterfaceDispatchEdges(t *testing.T) {
	g := buildProgram(t, []string{"example.com/b", "example.com/a"}, map[string]string{
		"example.com/b": `package b
type Doer interface{ Do() }
type Impl struct{}
func (Impl) Do() {}
`,
		"example.com/a": `package a
import "example.com/b"
func F(d b.Doer) { d.Do() }
`,
	})
	f := nodeByName(t, g, "a.F")
	impl := nodeByName(t, g, "b.Impl.Do")
	if !hasEdge(g, f, impl) {
		t.Fatalf("interface call should dispatch to the concrete implementation across packages")
	}
}
