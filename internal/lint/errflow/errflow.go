package errflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer enforces the project's error discipline: no silently
// dropped error returns, no fmt.Errorf that stringifies an error it
// should wrap with %w, and no == comparison against error sentinels
// that errors.Is must see through wrapped chains.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc: "flag dropped error returns, fmt.Errorf calls that carry an error argument " +
		"without a %w verb (breaking errors.Is on sentinel paths like " +
		"ErrBenchmarkQuarantined), and == / != comparisons between errors that bypass " +
		"errors.Is",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		isMethods := isMethodSpans(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDropped(pass, n)
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n, isMethods)
			case *ast.DeferStmt:
				// Deferred cleanup (Close, Unlock) follows the Close
				// convention; skip the whole subtree.
				return false
			case *ast.GoStmt:
				return false
			}
			return true
		})
	}
	return nil
}

// checkDropped flags an expression statement that discards an error
// result. `_ = f()` is explicit and legal; so are the documented
// exemptions in droppedExempt.
func checkDropped(pass *analysis.Pass, stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	t := pass.TypesInfo.TypeOf(call)
	if !analysis.ReturnsError(t) {
		return
	}
	if droppedExempt(pass, call) {
		return
	}
	name := types.ExprString(call.Fun)
	pass.Reportf(stmt.Pos(), "%s returns an error that is silently dropped: handle it or discard explicitly with _ =", name)
}

// droppedExempt whitelists calls whose error is unactionable by
// convention:
//   - Close (resource teardown; double-close and network-close errors
//     have no recovery path at the call site),
//   - fmt.Print/Printf/Println (CLI stdout),
//   - fmt.Fprint* into a *strings.Builder, *bytes.Buffer, os.Stdout, or
//     os.Stderr (the first two are documented to never fail),
//   - any method on *strings.Builder / *bytes.Buffer.
func droppedExempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.FuncObj(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if fn.Name() == "Close" {
		return true
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return infallibleWriter(sig.Recv().Type())
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) == 0 {
				return false
			}
			w := ast.Unparen(call.Args[0])
			if infallibleWriter(pass.TypesInfo.TypeOf(w)) {
				return true
			}
			switch types.ExprString(w) {
			case "os.Stdout", "os.Stderr":
				return true
			}
		}
	}
	return false
}

// infallibleWriter reports whether t is *strings.Builder or
// *bytes.Buffer (possibly behind one pointer), whose Write methods are
// documented to never return an error.
func infallibleWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}

// checkErrorfWrap flags fmt.Errorf("...", err) where the constant
// format string has no %w: the produced error hides err from
// errors.Is/As, which breaks every sentinel-based dispatch path.
func checkErrorfWrap(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.FuncObj(pass.TypesInfo, call)
	if !analysis.IsPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[ast.Unparen(call.Args[0])]
	if !ok || tv.Value == nil {
		return // non-constant format: cannot reason about verbs
	}
	format := tv.Value.ExactString()
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil || !analysis.ImplementsError(t) {
			continue
		}
		argName := types.ExprString(ast.Unparen(arg))
		if fixed, ok := rewriteLastVerb(format); ok {
			pass.ReportFix(call.Pos(), fmt.Sprintf("change the format string to %s so %s stays visible to errors.Is/As", fixed, argName),
				"fmt.Errorf carries error %s without %%w: the chain is cut and errors.Is/As cannot see through it", argName)
		} else {
			pass.Reportf(call.Pos(), "fmt.Errorf carries error %s without %%w: the chain is cut and errors.Is/As cannot see through it", argName)
		}
		return
	}
}

// rewriteLastVerb rewrites the final %v or %s in a quoted format string
// to %w — the mechanical fix for the common trailing-error shape. Other
// shapes (the error formatted mid-string among several verbs) get no
// suggestion: rewriting them safely needs verb-to-argument matching.
func rewriteLastVerb(format string) (string, bool) {
	idx := strings.LastIndex(format, "%v")
	if i := strings.LastIndex(format, "%s"); i > idx {
		idx = i
	}
	if idx < 0 {
		return "", false
	}
	return format[:idx] + "%w" + format[idx+2:], true
}

// isMethodSpans returns the body spans of `Is(error) bool` methods in
// f. Inside such a method the == comparison against a sentinel IS the
// errors.Is protocol implementation — errors.Is itself calls it — so
// checkSentinelCompare must not flag it.
func isMethodSpans(pass *analysis.Pass, f *ast.File) [][2]token.Pos {
	var spans [][2]token.Pos
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "Is" || fd.Body == nil {
			continue
		}
		sig, ok := pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
		if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
			continue
		}
		if analysis.IsErrorType(sig.Params().At(0).Type()) {
			spans = append(spans, [2]token.Pos{fd.Body.Pos(), fd.Body.End()})
		}
	}
	return spans
}

// checkSentinelCompare flags err == sentinel / err != sentinel between
// two error values; wrapped errors (every fmt.Errorf("...: %w") path in
// this repo) make the comparison silently false, so errors.Is is
// mandatory. Comparisons against nil stay legal, as do comparisons
// inside an `Is(error) bool` method (the protocol implementation).
func checkSentinelCompare(pass *analysis.Pass, be *ast.BinaryExpr, isMethods [][2]token.Pos) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, s := range isMethods {
		if be.Pos() >= s[0] && be.Pos() < s[1] {
			return
		}
	}
	if isNil(pass, be.X) || isNil(pass, be.Y) {
		return
	}
	xt, yt := pass.TypesInfo.TypeOf(be.X), pass.TypesInfo.TypeOf(be.Y)
	if xt == nil || yt == nil || !analysis.ImplementsError(xt) || !analysis.ImplementsError(yt) {
		return
	}
	pass.Reportf(be.Pos(), "error compared with %s: use errors.Is so wrapped chains still match", be.Op)
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}
