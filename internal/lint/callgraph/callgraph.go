// Package callgraph builds a whole-program static call graph over the
// module's packages so analyzers can reason across package boundaries:
// which functions a span-starting path reaches (ctxflow) and which
// module function a go statement spawns (goroutinecheck).
//
// The graph has one node per function declaration plus one per function
// literal (closures are first-class: their bodies execute wherever the
// closure is called). Edges cover
//
//   - static calls (identifier and selector callees),
//   - interface dispatch: a call through an interface method adds edges
//     to every module-internal concrete method that implements it,
//   - function values: referencing a function without calling it
//     (method values, callbacks passed as arguments) adds a may-call
//     edge, since the referenced function can run wherever the value
//     flows,
//   - closures: an enclosing function gets an edge into each literal it
//     defines.
//
// The engine is deliberately conservative: it over-approximates the
// call relation (function values may never be called; interface
// dispatch lists every implementer) because the analyzers built on top
// enforce "must hold everywhere it could run" contracts.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is one type-checked package handed to Build. It mirrors the
// loader's view (production files only, no tests).
type Package struct {
	Path  string // import path
	Dir   string // directory on disk
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// EdgeKind classifies how control can flow from one node to another.
type EdgeKind int

const (
	// EdgeCall is a direct static call.
	EdgeCall EdgeKind = iota
	// EdgeDispatch is a call through an interface method, resolved to a
	// concrete implementation.
	EdgeDispatch
	// EdgeRef is a function value reference: the target may be called
	// wherever the value flows.
	EdgeRef
	// EdgeClosure links a function to a literal it defines.
	EdgeClosure
)

// Edge is one directed may-call edge.
type Edge struct {
	From, To int
	Pos      token.Pos
	Kind     EdgeKind
}

// Node is one function in the graph: a declaration or a literal.
type Node struct {
	ID   int
	Name string      // qualified display name; closures get parent.func#N
	Func *types.Func // nil for closures
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package
}

// Graph is the whole-program call graph.
type Graph struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Nodes []*Node

	out    [][]Edge
	byFunc map[*types.Func]int
	byLit  map[*ast.FuncLit]int

	// callees marks identifiers consumed as a call's callee, so the
	// reference pass does not double-edge them. Filled before the
	// identifier is visited: ast.Inspect is pre-order, parents first.
	callees map[*ast.Ident]bool

	// implMemo caches interface-method -> implementing-node resolution.
	implMemo map[*types.Func][]int
}

// Build constructs the graph for pkgs. The packages must share fset and
// be fully type-checked.
func Build(fset *token.FileSet, pkgs []*Package) *Graph {
	g := &Graph{
		Fset:     fset,
		Pkgs:     pkgs,
		byFunc:   make(map[*types.Func]int),
		byLit:    make(map[*ast.FuncLit]int),
		callees:  make(map[*ast.Ident]bool),
		implMemo: make(map[*types.Func][]int),
	}
	// Pass 1: declaration nodes.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					g.addDecl(p, fd)
				}
			}
		}
	}
	// Pass 2: edges (and closure nodes, created as they are found).
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				g.walkBody(g.byFunc[obj], p, fd.Body)
			}
		}
	}
	return g
}

func (g *Graph) addDecl(p *Package, fd *ast.FuncDecl) {
	obj, _ := p.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	n := &Node{
		ID:   len(g.Nodes),
		Name: qualifiedName(obj),
		Func: obj,
		Decl: fd,
		Pkg:  p,
	}
	g.Nodes = append(g.Nodes, n)
	g.out = append(g.out, nil)
	g.byFunc[obj] = n.ID
}

// closureNode creates (or returns) the node for a literal.
func (g *Graph) closureNode(parent int, p *Package, lit *ast.FuncLit) int {
	if id, ok := g.byLit[lit]; ok {
		return id
	}
	n := &Node{
		ID:   len(g.Nodes),
		Name: fmt.Sprintf("%s.func#%d", g.Nodes[parent].Name, len(g.out[parent])+1),
		Lit:  lit,
		Pkg:  p,
	}
	g.Nodes = append(g.Nodes, n)
	g.out = append(g.out, nil)
	g.byLit[lit] = n.ID
	return n.ID
}

func (g *Graph) addEdge(from, to int, pos token.Pos, kind EdgeKind) {
	g.out[from] = append(g.out[from], Edge{From: from, To: to, Pos: pos, Kind: kind})
}

// walkBody attributes every call, reference, and literal under body to
// node `from`, descending into literals with the literal's own node as
// the new owner.
func (g *Graph) walkBody(from int, p *Package, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			id := g.closureNode(from, p, n)
			g.addEdge(from, id, n.Pos(), EdgeClosure)
			g.walkBody(id, p, n.Body)
			return false // the literal's body belongs to its own node
		case *ast.CallExpr:
			g.edgeForCall(from, p, n)
			// Arguments (which may reference functions) are visited by
			// the ongoing inspection; the callee expression is marked
			// handled via callFunIdent below.
		case *ast.Ident:
			g.edgeForRef(from, p, n)
		}
		return true
	})
}

// callIdent returns the identifier a call resolves through, or nil.
func callIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// edgeForCall adds the edge(s) for one call expression.
func (g *Graph) edgeForCall(from int, p *Package, call *ast.CallExpr) {
	id := callIdent(call)
	if id == nil {
		return // computed callee: any target it may hold was edged at its reference site
	}
	g.callees[id] = true
	fn, _ := p.Info.Uses[id].(*types.Func)
	if fn == nil {
		return // builtin, conversion, or func-typed variable
	}
	fn = origin(fn)
	if recv := recvOf(fn); recv != nil && types.IsInterface(recv.Type()) {
		for _, impl := range g.implementers(fn) {
			g.addEdge(from, impl, call.Pos(), EdgeDispatch)
		}
		return
	}
	if to, ok := g.byFunc[fn]; ok {
		g.addEdge(from, to, call.Pos(), EdgeCall)
	}
}

// edgeForRef adds a may-call edge when ident references a function as a
// value (not as the callee of an enclosing call — those are handled by
// edgeForCall; a duplicate edge is harmless but noisy, so calls mark
// their identifier via position comparison).
func (g *Graph) edgeForRef(from int, p *Package, ident *ast.Ident) {
	if g.callees[ident] {
		return // the callee of a call: edgeForCall owns it
	}
	fn, _ := p.Info.Uses[ident].(*types.Func)
	if fn == nil {
		return
	}
	fn = origin(fn)
	if recv := recvOf(fn); recv != nil && types.IsInterface(recv.Type()) {
		for _, impl := range g.implementers(fn) {
			g.addEdge(from, impl, ident.Pos(), EdgeDispatch)
		}
		return
	}
	if to, ok := g.byFunc[fn]; ok {
		g.addEdge(from, to, ident.Pos(), EdgeRef)
	}
}

// recvOf returns fn's receiver variable, nil for package-level funcs.
func recvOf(fn *types.Func) *types.Var {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	return sig.Recv()
}

func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// implementers resolves an interface method to the module-internal
// concrete methods that implement it, memoized.
func (g *Graph) implementers(im *types.Func) []int {
	if ids, ok := g.implMemo[im]; ok {
		return ids
	}
	var ids []int
	recv := recvOf(im)
	if recv == nil {
		g.implMemo[im] = nil
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	if iface == nil {
		g.implMemo[im] = nil
		return nil
	}
	for _, p := range g.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				if !types.Implements(t, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(t, true, im.Pkg(), im.Name())
				if m, ok := obj.(*types.Func); ok {
					if id, ok := g.byFunc[origin(m)]; ok {
						ids = append(ids, id)
					}
				}
				break // pointer set ⊇ value set; one resolution is enough
			}
		}
	}
	sort.Ints(ids)
	ids = dedupInts(ids)
	g.implMemo[im] = ids
	return ids
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// NodeOf returns the node for fn, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	if id, ok := g.byFunc[origin(fn)]; ok {
		return g.Nodes[id]
	}
	return nil
}

// DeclOf returns the syntax and package of fn's declaration inside the
// module, or nil when fn is external or bodyless.
func (g *Graph) DeclOf(fn *types.Func) (*ast.FuncDecl, *Package) {
	n := g.NodeOf(fn)
	if n == nil {
		return nil, nil
	}
	return n.Decl, n.Pkg
}

// Out returns the node's outgoing edges.
func (g *Graph) Out(id int) []Edge { return g.out[id] }

// qualifiedName renders pkgpath.Func or pkgpath.(*Recv).Method.
func qualifiedName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := recvOf(fn); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			if named, ok := p.Elem().(*types.Named); ok {
				return fmt.Sprintf("%s.(*%s).%s", pkg, named.Obj().Name(), fn.Name())
			}
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.%s.%s", pkg, named.Obj().Name(), fn.Name())
		}
		return fmt.Sprintf("%s.%s.%s", pkg, t.String(), fn.Name())
	}
	return pkg + "." + fn.Name()
}
