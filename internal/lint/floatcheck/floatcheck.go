package floatcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer enforces the project's float hygiene: no division by a
// value the function never validates, no math.Log/Sqrt on unvalidated
// inputs (the NaN factories of this codebase), no bitwise equality
// between computed floats, and no bare summation loops that should use
// the compensated numeric.Sum.
var Analyzer = &analysis.Analyzer{
	Name: "floatcheck",
	Doc: "flag unchecked float division, math.Log/Sqrt on unvalidated inputs, " +
		"float equality between computed values, and bare summation loops that " +
		"should use the compensated numeric.Sum / numeric.Accumulator helpers",
	Run: run,
}

// nanFuncs are the math functions whose domain edges mint NaN/Inf from
// otherwise-healthy inputs.
var nanFuncs = map[string]bool{"Log": true, "Log2": true, "Log10": true, "Sqrt": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// span is a half-open position interval.
type span struct{ lo, hi token.Pos }

func insideAny(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s.lo && pos < s.hi {
			return true
		}
	}
	return false
}

// checkFunc runs all per-function checks. "Validated" is a textual,
// function-scoped notion: an expression counts as validated if it (or,
// through one-hop definition propagation, what it was assigned from)
// appears anywhere in the function inside a comparison, or as the
// argument of math.IsNaN/IsInf/Abs, or ranges a loop the division sits
// in. This deliberately ignores control flow; the goal is to force *a*
// guard into the function, not to prove dominance.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	guarded := guardedExprs(pass, fd)
	defs := simpleDefs(pass, fd)
	comparators := comparatorRanges(pass, fd)
	var validated func(e ast.Expr, depth int) bool
	validated = func(e ast.Expr, depth int) bool {
		e = stripConversions(pass, e)
		if isConst(pass, e) || obviouslySafe(pass, e) {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		default:
			// Composite arithmetic is beyond a textual check; stay quiet
			// rather than guess.
			return true
		}
		if guarded[types.ExprString(e)] {
			return true
		}
		// Definition propagation: n := float64(len(xs)) is validated
		// when len(xs) is.
		if id, ok := e.(*ast.Ident); ok && depth < 4 {
			if def, ok := defs[id.Name]; ok {
				return validated(def, depth+1)
			}
		}
		return false
	}
	reportDiv := func(pos token.Pos, denom ast.Expr) {
		pass.Reportf(pos, "division by %s, which this function never validates: guard it (== 0 / <= 0 check) before dividing", types.ExprString(ast.Unparen(denom)))
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.QUO:
				if analysis.IsFloat(exprType(pass, n.X)) && !validated(n.Y, 0) {
					reportDiv(n.Pos(), n.Y)
				}
			case token.EQL, token.NEQ:
				checkFloatEq(pass, n, comparators)
			}
		case *ast.AssignStmt:
			if n.Tok == token.QUO_ASSIGN && len(n.Lhs) == 1 && analysis.IsFloat(exprType(pass, n.Lhs[0])) && !validated(n.Rhs[0], 0) {
				reportDiv(n.Pos(), n.Rhs[0])
			}
		case *ast.CallExpr:
			fn := analysis.FuncObj(pass.TypesInfo, n)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" && nanFuncs[fn.Name()] && len(n.Args) == 1 {
				if !validated(n.Args[0], 0) {
					pass.Reportf(n.Pos(), "math.%s(%s) without a domain check in this function: negative or zero inputs mint NaN/-Inf that propagate silently", fn.Name(), types.ExprString(ast.Unparen(n.Args[0])))
				}
			}
		case *ast.RangeStmt:
			checkBareSum(pass, n)
		}
		return true
	})
}

// checkFloatEq flags == / != between two computed (non-constant)
// floats. Exemptions, each semantically necessary:
//   - comparison against a constant (sentinel checks like == 0),
//   - x != x (the NaN probe),
//   - sort/heap comparators (deterministic tie-breaking requires exact
//     comparison; a tolerance would break strict weak ordering),
//   - conditions of early-exit ifs (`if a == b { return ... }` is
//     itself a degenerate-input guard, usually for a division below).
func checkFloatEq(pass *analysis.Pass, be *ast.BinaryExpr, comparators []span) {
	xt, yt := exprType(pass, be.X), exprType(pass, be.Y)
	if !analysis.IsFloat(xt) || !analysis.IsFloat(yt) {
		return
	}
	if isConst(pass, be.X) || isConst(pass, be.Y) {
		return
	}
	if types.ExprString(ast.Unparen(be.X)) == types.ExprString(ast.Unparen(be.Y)) {
		return // x != x is the NaN check
	}
	if insideAny(comparators, be.Pos()) {
		return
	}
	pass.Reportf(be.Pos(), "bitwise float comparison %s %s %s: compare against a tolerance or use math.Nextafter-aware logic", types.ExprString(be.X), be.Op, types.ExprString(be.Y))
}

// comparatorRanges collects position ranges where exact float
// comparison is the correct tool: bodies of Less/less methods and of
// function literals passed to sort/slices ordering helpers, plus
// early-exit if-conditions.
func comparatorRanges(pass *analysis.Pass, fd *ast.FuncDecl) []span {
	var spans []span
	if fd.Name != nil && (fd.Name.Name == "Less" || fd.Name.Name == "less") {
		spans = append(spans, span{fd.Body.Pos(), fd.Body.End()})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.FuncObj(pass.TypesInfo, n)
			if fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sort", "slices":
					for _, arg := range n.Args {
						if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							spans = append(spans, span{fl.Pos(), fl.End()})
						}
					}
				}
			}
		case *ast.IfStmt:
			if n.Cond != nil && earlyExit(n.Body) {
				spans = append(spans, span{n.Cond.Pos(), n.Cond.End()})
			}
		}
		return true
	})
	return spans
}

// earlyExit reports whether a block's last statement leaves the
// surrounding flow.
func earlyExit(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// checkBareSum flags `for _, v := range xs { s += v }` over a float
// slice: exactly the loop numeric.Sum replaces with a compensated
// version.
func checkBareSum(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := exprType(pass, rs.X)
	if t == nil {
		return
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok || !analysis.IsFloat(slice.Elem()) {
		return
	}
	if len(rs.Body.List) != 1 {
		return
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 {
		return
	}
	if _, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); !ok {
		// out[j] += v is an elementwise vector add, not a scalar
		// reduction; numeric.Sum is not a drop-in there.
		return
	}
	v, ok := rs.Value.(*ast.Ident)
	if !ok {
		return
	}
	rhs, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident)
	if !ok || rhs.Name != v.Name {
		return
	}
	pass.Reportf(rs.Pos(), "bare float summation loop: use the compensated numeric.Sum(%s) so long accumulations do not drift", types.ExprString(rs.X))
}

// guardedExprs collects the textual form of every expression the
// function compares or NaN/Inf-probes anywhere, plus len(X) for every
// slice X the function ranges over with a non-empty body (executing the
// body proves len(X) > 0 at least once).
func guardedExprs(pass *analysis.Pass, fd *ast.FuncDecl) map[string]bool {
	guarded := make(map[string]bool)
	add := func(e ast.Expr) {
		e = stripConversions(pass, e)
		guarded[types.ExprString(e)] = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				add(n.X)
				add(n.Y)
			}
		case *ast.CallExpr:
			fn := analysis.FuncObj(pass.TypesInfo, n)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" && len(n.Args) >= 1 {
				switch fn.Name() {
				case "IsNaN", "IsInf", "Abs":
					add(n.Args[0])
				}
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				add(n.Tag)
			}
		case *ast.RangeStmt:
			guarded["len("+types.ExprString(ast.Unparen(n.X))+")"] = true
		}
		return true
	})
	return guarded
}

// simpleDefs maps each identifier defined exactly once by a simple
// `x := expr` (or single `x = expr`) in the function to that expr, the
// substrate of definition propagation. Identifiers assigned more than
// once are dropped: their value is path-dependent.
func simpleDefs(pass *analysis.Pass, fd *ast.FuncDecl) map[string]ast.Expr {
	defs := make(map[string]ast.Expr)
	dead := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if _, seen := defs[id.Name]; seen || dead[id.Name] || as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
				dead[id.Name] = true
				delete(defs, id.Name)
				continue
			}
			defs[id.Name] = as.Rhs[i]
		}
		return true
	})
	return defs
}

// stripConversions unwraps parens and numeric conversions so that
// float64(len(xs)) and len(xs) guard each other.
func stripConversions(pass *analysis.Pass, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		// A conversion's Fun denotes a type, not a value.
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			e = call.Args[0]
			continue
		}
		return e
	}
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.Value != nil
}

// obviouslySafe recognizes expressions whose range is safe by
// construction: x*x (non-negative) and math.Abs(...).
func obviouslySafe(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.MUL && types.ExprString(ast.Unparen(e.X)) == types.ExprString(ast.Unparen(e.Y)) {
			return true
		}
	case *ast.CallExpr:
		fn := analysis.FuncObj(pass.TypesInfo, e)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" && fn.Name() == "Abs" {
			return true
		}
	}
	return false
}

func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	return pass.TypesInfo.TypeOf(e)
}
