package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer enforces the lock discipline the serving and training
// paths rely on: no critical section that branches between Lock and a
// non-deferred Unlock. Copied locks are go vet's copylocks check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "flag Lock/Unlock pairs where the critical section branches without " +
		"a deferred Unlock",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockDiscipline(pass, fd.Body)
			}
			return true
		})
	}
	return nil
}

// lockCall matches <recv>.Lock / RLock / Unlock / RUnlock and returns
// the textual receiver and the method name.
func lockCall(stmt ast.Stmt) (recv, method string, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", "", false
	}
	return lockCallExpr(es.X)
}

func lockCallExpr(e ast.Expr) (recv, method string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// unlockFor maps a lock method to its release.
func unlockFor(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// checkLockDiscipline walks every statement list in the function. For
// each Lock it requires one of:
//   - a deferred matching Unlock reachable through straight-line
//     statements, or
//   - a matching non-deferred Unlock with only straight-line statements
//     (no if/for/switch/select/return/go) in between.
//
// Anything else — a branch inside the critical section without a
// deferred release, or no release in the same list at all — is flagged,
// because one early return or panic then strands the lock.
func checkLockDiscipline(pass *analysis.Pass, body *ast.BlockStmt) {
	for _, list := range analysis.StmtLists(body) {
		for i, stmt := range list {
			recv, method, ok := lockCall(stmt)
			if !ok || (method != "Lock" && method != "RLock") {
				continue
			}
			checkCriticalSection(pass, stmt.Pos(), recv, unlockFor(method), list[i+1:], body)
		}
	}
}

func checkCriticalSection(pass *analysis.Pass, lockPos token.Pos, recv, unlock string, rest []ast.Stmt, body *ast.BlockStmt) {
	for _, stmt := range rest {
		// Deferred release: everything after is covered, done.
		if ds, ok := stmt.(*ast.DeferStmt); ok {
			if r, m, ok := lockCallExpr(ds.Call); ok && r == recv && m == unlock {
				return
			}
		}
		if r, m, ok := lockCall(stmt); ok && r == recv && m == unlock {
			return // straight-line critical section
		}
		if !straightLine(stmt) {
			pass.Reportf(lockPos, "%s.%s critical section branches before %s: defer the %s (or hoist the branch out) so early returns and panics cannot strand the lock", recv, lockOf(unlock), unlock, unlock)
			return
		}
	}
	// No release in this statement list; accept a deferred release
	// anywhere in the function (Lock in a helper-free getter pattern),
	// otherwise flag.
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			if r, m, ok := lockCallExpr(ds.Call); ok && r == recv && m == unlock {
				found = true
			}
		}
		return !found
	})
	if !found {
		pass.Reportf(lockPos, "%s.%s has no matching %s on this path: release the lock before leaving the block or defer it", recv, lockOf(unlock), unlock)
	}
}

func lockOf(unlock string) string {
	if unlock == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

// straightLine reports whether stmt cannot redirect control flow out of
// or around the critical section.
func straightLine(stmt ast.Stmt) bool {
	switch stmt.(type) {
	case *ast.AssignStmt, *ast.ExprStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		return true
	}
	return false
}
