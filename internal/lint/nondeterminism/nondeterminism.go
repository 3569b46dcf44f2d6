package nondeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags the three nondeterminism sources that break this
// project's bit-reproducibility contract: ambient clocks (reads and
// sleeps), the global math/rand source, and order-sensitive iteration
// over maps.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc: "forbid ambient clocks (time.Now/Since/Until/Sleep), the global math/rand source, " +
		"and map iteration that feeds order-sensitive output (slice append or float " +
		"accumulation); the sanctioned escape hatches are internal/randx (RNG, Clock, " +
		"SystemClock) and the SetClock levers",
	Run: run,
}

// randCtors are the math/rand package-level constructors that build a
// *local* seeded source — the raw material internal/randx wraps — and
// therefore stay legal; every other package-level function draws from
// the global, seed-ambient source.
var randCtors = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true, "NewSource": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/randx") {
		// randx is the sanctioned wrapper: it owns the one legal
		// time.Now reference (SystemClock) and the rand constructors,
		// and may sleep on the wall clock it wraps.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on a local *rand.Rand etc. are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(), "ambient clock time.%s: route through a randx.Clock (randx.SystemClock at the edges, SetClock in tests)", fn.Name())
				case "Sleep":
					pass.Reportf(sel.Pos(), "ambient time.Sleep waits on wall time that no test controls: wait on a channel the caller owns (ctx.Done(), a ticker or timer it can replace)")
				}
			case "math/rand", "math/rand/v2":
				if !randCtors[fn.Name()] {
					pass.Reportf(sel.Pos(), "global math/rand source rand.%s: use a seeded *randx.RNG so the draw is reproducible", fn.Name())
				}
			}
			return true
		})
	}
	checkMapRanges(pass)
	return nil
}

// checkMapRanges flags `for k, v := range m` over a map when the loop
// body appends to a slice declared outside the loop (element order then
// depends on map iteration order) or accumulates into an outer
// floating-point location (float addition is not associative, so the
// sum's bits depend on iteration order). Integer accumulation and
// writes keyed by the range key are exact or order-free and stay legal,
// as does an append whose slice is sorted immediately after the loop.
func checkMapRanges(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, list := range analysis.StmtLists(f) {
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRangeBody(pass, rs, list[i+1:])
			}
		}
	}
}

func checkMapRangeBody(pass *analysis.Pass, rs *ast.RangeStmt, after []ast.Stmt) {
	keyObj := rangeVarObj(pass, rs.Key)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
					continue
				}
				target, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok || !declaredOutside(pass, target, rs) {
					continue
				}
				if sortedAfter(pass, target.Name, after) {
					continue
				}
				pass.Reportf(as.Pos(), "append to %s inside a map-range loop: element order follows map iteration order; collect and sort the keys first (or sort %s right after the loop)", target.Name, target.Name)
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := as.Lhs[0]
			lt := pass.TypesInfo.TypeOf(lhs)
			if lt == nil || !analysis.IsFloat(lt) {
				return true // integer accumulation is exact in any order
			}
			// m2[k] op= v — indexed by the range key — lands each map
			// entry in its own slot, so iteration order cannot matter.
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyObj != nil && usesObj(pass, ix.Index, keyObj) {
				return true
			}
			if !exprDeclaredOutside(pass, lhs, rs) {
				return true
			}
			pass.Reportf(as.Pos(), "float accumulation (%s) inside a map-range loop: float addition is order-sensitive, so the result depends on map iteration order; iterate sorted keys", as.Tok)
		}
		return true
	})
}

// rangeVarObj resolves the object of a `k` or `_, v :=` range variable.
func rangeVarObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	id, ok := expr.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// usesObj reports whether expr mentions obj.
func usesObj(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// declaredOutside reports whether id's object is declared outside the
// range statement (i.e. the loop mutates surviving state).
func declaredOutside(pass *analysis.Pass, id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// exprDeclaredOutside extends declaredOutside to the base identifier of
// selector/index chains (s.total, acc[i], ...).
func exprDeclaredOutside(pass *analysis.Pass, expr ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return declaredOutside(pass, e, rs)
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// sortedAfter reports whether one of the statements following the loop
// in the same block sorts the named slice, which restores a
// deterministic order.
func sortedAfter(pass *analysis.Pass, name string, after []ast.Stmt) bool {
	for _, stmt := range after {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		fn := analysis.FuncObj(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			continue
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			continue
		}
		if types.ExprString(ast.Unparen(call.Args[0])) == name {
			return true
		}
	}
	return false
}
