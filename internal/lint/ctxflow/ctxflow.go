package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer enforces the context-propagation discipline of the ingest
// and refit paths: contexts come first in signatures, flow to every
// context-aware callee, are never kept in struct fields, and are never
// silently re-rooted with context.Background()/TODO() outside process
// entry points.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag context.Context parameters that are not first, context.Context struct " +
		"fields and context.Background()/TODO() outside package main, and a caller with a " +
		"ctx in scope re-rooting a context-aware callee with Background/TODO",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		if !isMain {
			checkCtxFields(pass, f)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxFirst(pass, fd)
			if fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, isMain: isMain}
			c.walk(fd.Body, hasCtxParam(pass.TypesInfo, fd.Type))
		}
	}
	return nil
}

// checkCtxFirst flags a context.Context parameter that is not the
// first parameter.
func checkCtxFirst(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtxType(pass.TypesInfo.TypeOf(field.Type)) && pos != 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
		}
		pos += n
	}
}

// checkCtxFields flags struct fields of type context.Context. A kept
// context outlives the call that supplied it, so a method that starts
// spans or waits on it later joins a finished trace or a stale
// deadline; the context package asks for it to be passed to each call.
func checkCtxFields(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if isCtxType(pass.TypesInfo.TypeOf(field.Type)) {
				pass.Reportf(field.Pos(), "context.Context kept in a struct field outside package main: pass ctx as the first parameter of each call that needs it")
			}
		}
		return true
	})
}

// hasCtxParam reports whether a function type declares a context
// parameter.
func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isCtxType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

type checker struct {
	pass   *analysis.Pass
	isMain bool
}

// walk inspects a body; ctxInScope says whether the enclosing function
// (or an enclosing closure's captures) carries a context parameter.
func (c *checker) walk(nd ast.Node, ctxInScope bool) {
	ast.Inspect(nd, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			c.walk(x.Body, ctxInScope || hasCtxParam(c.pass.TypesInfo, x.Type))
			return false
		case *ast.CallExpr:
			c.checkCall(x, ctxInScope)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, ctxInScope bool) {
	fn := analysis.FuncObj(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if name := backgroundName(fn); name != "" && !c.isMain {
		c.pass.Reportf(call.Pos(), "context.%s outside package main re-roots the context tree: accept a ctx parameter and propagate it (//lint:allow ctxflow with a reason for genuinely lifecycle-scoped work)", name)
	}
	// A context-aware callee must get the caller's context, not a fresh
	// root, whenever the caller has one in scope.
	if ctxInScope && len(call.Args) > 0 && calleeTakesCtx(fn) {
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
			if name := backgroundName(analysis.FuncObj(c.pass.TypesInfo, arg)); name != "" {
				c.pass.Reportf(call.Args[0].Pos(), "caller has a context in scope but re-roots %s with context.%s: propagate the caller's ctx", fn.Name(), name)
			}
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

// backgroundName returns "Background" or "TODO" when fn is that
// context constructor, and "" otherwise (including for a nil fn).
func backgroundName(fn *types.Func) string {
	if analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO") {
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
