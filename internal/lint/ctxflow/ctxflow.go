package ctxflow

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
)

// Analyzer enforces the context-propagation discipline PR 8 threaded
// through ingest and refit: contexts come first in signatures, flow to
// every context-aware callee, and are never silently re-rooted with
// context.Background()/TODO() outside process entry points. Ambient
// time.Sleep is forbidden in favor of the injectable randx.Clock.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag context.Context parameters that are not first, context.Background()/TODO() " +
		"outside package main, a caller with a ctx in scope re-rooting a context-aware " +
		"callee with Background/TODO, callees that start spans but cannot receive the " +
		"caller's context, and ambient time.Sleep (use randx.Clock)",
	RunGraph: run,
}

// ClockExemptPattern selects packages allowed to touch the ambient
// clock: the deterministic clock shim itself lives there.
var ClockExemptPattern = regexp.MustCompile(`internal/randx$`)

// SpanPackagePath and SpanFuncName locate the span constructor whose
// transitive callers form the spanning set; vars so the linttest suite
// can point them at a testdata package.
var (
	SpanPackagePath = "repro/internal/obs"
	SpanFuncName    = "Start"
)

func run(gp *analysis.GraphPass) error {
	spanning := spanningSet(gp)
	for _, p := range gp.Pkgs {
		isMain := p.Types.Name() == "main"
		clockExempt := ClockExemptPattern.MatchString(p.Path)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				checkCtxFirst(gp, p, fd)
				if fd.Body == nil {
					continue
				}
				c := &checker{gp: gp, pkg: p, isMain: isMain, clockExempt: clockExempt, spanning: spanning}
				c.walk(fd.Body, hasCtxParam(p, fd))
			}
		}
	}
	return nil
}

// spanningSet computes the module functions that transitively start
// obs spans but take no context themselves: calling one of these from a
// context-carrying function orphans its spans from the caller's trace.
func spanningSet(gp *analysis.GraphPass) map[*callgraph.Node]bool {
	g := gp.Graph
	// Find obs.Start.
	var start *callgraph.Node
	for _, n := range g.Nodes {
		if n.Func != nil && n.Pkg.Path == SpanPackagePath && n.Func.Name() == SpanFuncName && recvOf(n.Func) == nil {
			start = n
			break
		}
	}
	if start == nil {
		return nil
	}
	// Reverse reachability to obs.Start.
	reaches := map[int]bool{start.ID: true}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if reaches[n.ID] {
				continue
			}
			for _, e := range g.Out(n.ID) {
				if reaches[e.To] {
					reaches[n.ID] = true
					changed = true
					break
				}
			}
		}
	}
	out := make(map[*callgraph.Node]bool)
	for id := range reaches {
		out[g.Nodes[id]] = true
	}
	return out
}

// checkCtxFirst flags a context.Context parameter that is not the
// first parameter.
func checkCtxFirst(gp *analysis.GraphPass, p *callgraph.Package, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtxType(p.Info.TypeOf(field.Type)) && pos != 0 {
			gp.Reportf(field.Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
		}
		pos += n
	}
}

func hasCtxParam(p *callgraph.Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isCtxType(p.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

type checker struct {
	gp          *analysis.GraphPass
	pkg         *callgraph.Package
	isMain      bool
	clockExempt bool
	spanning    map[*callgraph.Node]bool
}

// walk inspects a body; ctxInScope says whether the enclosing function
// (or an enclosing closure's captures) carries a context parameter.
func (c *checker) walk(nd ast.Node, ctxInScope bool) {
	ast.Inspect(nd, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			inner := ctxInScope || litHasCtxParam(c.pkg, x)
			c.walk(x.Body, inner)
			return false
		case *ast.CallExpr:
			c.checkCall(x, ctxInScope)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, ctxInScope bool) {
	fn := funcOf(c.pkg.Info, call)
	if fn == nil {
		return
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case pkgPath == "context" && (fn.Name() == "Background" || fn.Name() == "TODO"):
		if !c.isMain {
			c.gp.Reportf(call.Pos(), "context.%s outside package main re-roots the context tree: accept a ctx parameter and propagate it (//lint:allow ctxflow with a reason for genuinely lifecycle-scoped work)", fn.Name())
		}
	case pkgPath == "time" && fn.Name() == "Sleep":
		if !c.clockExempt {
			c.gp.Reportf(call.Pos(), "ambient time.Sleep is untestable and nondeterministic: sleep on the injected randx.Clock instead")
		}
	}
	// A context-aware callee must get the caller's context, not a fresh
	// root, whenever the caller has one in scope.
	if ctxInScope && len(call.Args) > 0 && calleeTakesCtx(fn) {
		if isBackgroundOrTODO(c.pkg.Info, call.Args[0]) {
			c.gp.Reportf(call.Args[0].Pos(), "caller has a context in scope but re-roots %s with context.%s: propagate the caller's ctx", fn.Name(), backgroundName(c.pkg.Info, call.Args[0]))
		}
	}
	// Spanning callees that cannot receive a context orphan their spans
	// from the caller's trace tree.
	if ctxInScope && !calleeTakesCtx(fn) && c.spanning != nil {
		if n := c.gp.Graph.NodeOf(fn); n != nil && c.spanning[n] && !hasCtxAnywhere(fn) {
			c.gp.Reportf(call.Pos(), "%s starts spans but takes no context: its trace is orphaned from the caller's; add a ctx parameter", fn.Name())
		}
	}
}

// calleeTakesCtx reports whether fn's first parameter is a context.
func calleeTakesCtx(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Params().Len() == 0 {
		return false
	}
	return isCtxType(sig.Params().At(0).Type())
}

func hasCtxAnywhere(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isBackgroundOrTODO(info *types.Info, e ast.Expr) bool {
	return backgroundName(info, e) != ""
}

func backgroundName(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := funcOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

func isCtxType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func litHasCtxParam(p *callgraph.Package, lit *ast.FuncLit) bool {
	if lit.Type.Params == nil {
		return false
	}
	for _, field := range lit.Type.Params.List {
		if isCtxType(p.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func recvOf(fn *types.Func) *types.Var {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	return sig.Recv()
}

func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
