package goroutinecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/lint/analysis"
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
		"pair, no ctx.Done() bound, no channel join handle in the spawned literal or " +
		"same-package function) outside internal/parallel " +
		"and internal/drift; in server paths (internal/serve, internal/core) every raw " +
		"goroutine is flagged — fan out through internal/parallel",
	Run: run,
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

func run(pass *analysis.Pass) error {
	if ExemptPattern.MatchString(pass.Pkg.Path()) {
		return nil
	}
	server := ServerPathPattern.MatchString(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if server {
				pass.Reportf(gs.Pos(), "raw goroutine in a server path: fan out through internal/parallel (ForEach) so concurrency stays bounded, or justify with //lint:allow")
				return true
			}
			body := spawnedBody(pass, gs)
			if body == nil || !boundBody(pass, body) {
				pass.Reportf(gs.Pos(), "raw goroutine without a visible lifecycle bound: join it (WaitGroup Add/Done/Wait), bound it on ctx.Done(), or hand it a channel join handle — or justify with //lint:allow")
			}
			return true
		})
	}
	return nil
}

// spawnedBody resolves the goroutine's function body: a literal's own
// body, or the declaration body of a function declared in this
// package. A callee declared elsewhere, or computed at run time,
// resolves to nil: its binding cannot be verified, so it is flagged.
func spawnedBody(pass *analysis.Pass, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	fn := analysis.FuncObj(pass.TypesInfo, gs.Call)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && pass.TypesInfo.Defs[fd.Name] == fn.Origin() {
				return fd.Body
			}
		}
	}
	return nil
}

// boundBody recognizes the three lifecycle-binding shapes:
//
//  1. a WaitGroup release — defer wg.Done() or wg.Done() — whose Wait
//     side is the spawner's to hold;
//  2. a receive from some ctx.Done() channel (the goroutine exits when
//     its owner's context is canceled);
//  3. a body that is exactly one channel send: the channel is the join
//     handle the spawner receives on.
func boundBody(pass *analysis.Pass, body *ast.BlockStmt) bool {
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
			if isWaitGroupDone(pass, n) {
				bound = true
				return false
			}
		case *ast.UnaryExpr:
			if isCtxDoneRecv(pass, n) {
				bound = true
				return false
			}
		}
		return true
	})
	return bound
}

// isWaitGroupDone matches wg.Done() where wg is a sync.WaitGroup.
func isWaitGroupDone(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
		return false
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync"
}

// isCtxDoneRecv matches <-ctx.Done() where ctx is a context.Context.
func isCtxDoneRecv(pass *analysis.Pass, ue *ast.UnaryExpr) bool {
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
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "context"
}
