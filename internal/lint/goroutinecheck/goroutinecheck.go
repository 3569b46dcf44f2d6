package goroutinecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
)

// Analyzer extends lockcheck's old serve/core-only raw-goroutine rule
// repo-wide: every `go` statement outside the concurrency substrates
// (internal/parallel's bounded pool, internal/drift's lifecycle-managed
// refit workers) must be visibly lifecycle-bound — joined through a
// WaitGroup, bounded by a context's Done channel, or handed a channel
// join handle — so no goroutine can outlive its owner. In server paths
// (internal/serve, internal/core) raw goroutines stay forbidden
// outright: request work fans out through internal/parallel. The
// cluster router (internal/cluster) sits in the default class: it
// spawns no goroutine itself, and any it gains must show its bound
// (its probe loop is WaitGroup-joined by cmd/varroute).
var Analyzer = &analysis.Analyzer{
	Name: "goroutinecheck",
	Doc: "flag raw go statements that are not lifecycle-bound (no WaitGroup Done/Wait " +
		"pair, no ctx.Done() bound, no channel join handle) outside internal/parallel " +
		"and internal/drift; in server paths (internal/serve, internal/core) every raw " +
		"goroutine is flagged — fan out through internal/parallel",
	RunGraph: run,
}

// ExemptPattern selects the packages that ARE the concurrency
// substrate: the bounded worker pool and the drift manager's
// lifecycle-owned refit workers.
var ExemptPattern = regexp.MustCompile(`internal/(parallel|drift)$`)

// ServerPathPattern selects the packages where raw `go` statements are
// forbidden regardless of lifecycle binding: request-serving code must
// fan out through internal/parallel so concurrency stays bounded and
// first-error semantics hold. (Moved here from lockcheck.)
var ServerPathPattern = regexp.MustCompile(`(^|/)(serve|core)$`)

func run(gp *analysis.GraphPass) error {
	for _, p := range gp.Pkgs {
		if ExemptPattern.MatchString(p.Path) {
			continue
		}
		server := ServerPathPattern.MatchString(p.Path)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if server {
					gp.Reportf(gs.Pos(), "raw goroutine in a server path: fan out through internal/parallel (ForEach) so concurrency stays bounded, or justify with //lint:allow")
					return true
				}
				if !lifecycleBound(gp, p, gs) {
					gp.Reportf(gs.Pos(), "raw goroutine without a visible lifecycle bound: join it (WaitGroup Add/Done/Wait), bound it on ctx.Done(), or hand it a channel join handle — or justify with //lint:allow")
				}
				return true
			})
		}
	}
	return nil
}

// lifecycleBound reports whether the spawned function's body shows a
// recognized lifecycle binding. Named callees resolve through the call
// graph so a `go m.dispatch()` in one file is judged by dispatch's body
// in another.
func lifecycleBound(gp *analysis.GraphPass, p *callgraph.Package, gs *ast.GoStmt) bool {
	body, bodyPkg := spawnedBody(gp, p, gs)
	if body == nil {
		return false // external or computed callee: cannot verify, flag it
	}
	return boundBody(bodyPkg, body)
}

// spawnedBody resolves the goroutine's function body: a literal's own
// body, or the declaration body of a named module function.
func spawnedBody(gp *analysis.GraphPass, p *callgraph.Package, gs *ast.GoStmt) (*ast.BlockStmt, *callgraph.Package) {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, p
	}
	var id *ast.Ident
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	if fn == nil {
		return nil, nil
	}
	decl, declPkg := gp.Graph.DeclOf(fn)
	if decl == nil {
		return nil, nil
	}
	return decl.Body, declPkg
}

// boundBody recognizes the three lifecycle-binding shapes:
//
//  1. a WaitGroup release — defer wg.Done() or wg.Done() — whose Wait
//     side is the spawner's to hold;
//  2. a receive from some ctx.Done() channel (the goroutine exits when
//     its owner's context is canceled);
//  3. a body that is exactly one channel send: the channel is the join
//     handle the spawner receives on.
func boundBody(p *callgraph.Package, body *ast.BlockStmt) bool {
	if len(body.List) == 1 {
		if _, ok := body.List[0].(*ast.SendStmt); ok {
			return true
		}
	}
	bound := false
	ast.Inspect(body, func(n ast.Node) bool {
		if bound {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupDone(p, n) {
				bound = true
				return false
			}
		case *ast.UnaryExpr:
			if isCtxDoneRecv(p, n) {
				bound = true
				return false
			}
		}
		return true
	})
	return bound
}

// isWaitGroupDone matches wg.Done() where wg is a sync.WaitGroup.
func isWaitGroupDone(p *callgraph.Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
		return false
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync"
}

// isCtxDoneRecv matches <-ctx.Done() where ctx is a context.Context.
func isCtxDoneRecv(p *callgraph.Package, ue *ast.UnaryExpr) bool {
	if ue.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(ue.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "context"
}
