package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer enforces the lock discipline the serving and training
// paths rely on: no copied locks and no critical section that branches
// between Lock and a non-deferred Unlock. (The raw-goroutine rule that
// used to live here moved to goroutinecheck in v2, where it applies
// repo-wide with call-graph-resolved lifecycle binding.)
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "flag copies of lock-bearing values (value receivers, value params, " +
		"assignments, range values) and Lock/Unlock pairs where the critical section " +
		"branches without a deferred Unlock",
	Run: run,
}

// lockNames are the sync types whose values must never be copied after
// first use.
var lockNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true, "Map": true, "Pool": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkSignature(pass, n)
				if n.Body != nil {
					checkLockDiscipline(pass, n.Body)
				}
			case *ast.AssignStmt:
				checkCopyAssign(pass, n)
			case *ast.RangeStmt:
				checkRangeCopy(pass, n)
			}
			return true
		})
	}
	return nil
}

// containsLock walks t's struct composition (fields, arrays, embedded
// structs) for a sync lock type. Pointers stop the walk: a *Mutex field
// is shareable.
func containsLock(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockNames[obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), depth+1)
	}
	return false
}

// checkSignature flags value receivers and value parameters whose type
// carries a lock: every call copies the lock state.
func checkSignature(pass *analysis.Pass, fd *ast.FuncDecl) {
	report := func(field *ast.Field, what string) {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			return
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return
		}
		if containsLock(t, 0) {
			pass.Reportf(field.Pos(), "%s passes a lock-bearing %s by value: every call copies the lock; use a pointer", what, t.String())
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			report(field, "receiver")
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			report(field, "parameter")
		}
	}
}

// checkCopyAssign flags `x := y` / `x = y` where y is an existing
// lock-bearing value (not a fresh composite literal or call result —
// constructors hand over ownership of a never-locked value).
func checkCopyAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		switch ast.Unparen(rhs).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		default:
			continue
		}
		t := pass.TypesInfo.TypeOf(rhs)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
			continue // blank discard retains no copy
		}
		if containsLock(t, 0) {
			pass.Reportf(as.Pos(), "assignment copies lock-bearing value %s (%s): share it through a pointer", types.ExprString(ast.Unparen(as.Lhs[i])), t.String())
		}
	}
}

// checkRangeCopy flags `for _, v := range xs` where the element type
// carries a lock: v is a copy per iteration.
func checkRangeCopy(pass *analysis.Pass, rs *ast.RangeStmt) {
	if rs.Value == nil {
		return
	}
	id, ok := rs.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	t := pass.TypesInfo.TypeOf(rs.Value)
	if t == nil {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return
	}
	if containsLock(t, 0) {
		pass.Reportf(rs.Pos(), "range value %s copies a lock-bearing %s each iteration: range over indices and take pointers", id.Name, t.String())
	}
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
