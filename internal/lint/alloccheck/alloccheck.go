package alloccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
)

// Analyzer statically enforces the zero-allocation contract on every
// function reachable from a //perf:hotpath root. It is the
// compile-time twin of the AllocsPerRun tests: the dynamic tests prove
// the pinned benchmarks allocation-free, this check proves nobody adds
// an allocating construct anywhere in the hot call graph between those
// benchmark runs.
var Analyzer = &analysis.Analyzer{
	Name: "alloccheck",
	Doc: "flag allocation-inducing constructs (fmt calls, string concatenation, " +
		"un-capped append growth, map/slice literals, make/new, interface boxing of " +
		"scalars, escaping closures and method values) in functions reachable from " +
		"//perf:hotpath roots; //perf:pooled functions are exempt (pool-miss cold path)",
	RunGraph: run,
}

func run(gp *analysis.GraphPass) error {
	for _, n := range gp.Graph.HotSet() {
		if n.Pooled {
			continue // pool acquisition: allocates only on the cold path
		}
		checkNode(gp, n)
	}
	return nil
}

// root names the hot root a node is reachable from, for the finding
// message.
func root(gp *analysis.GraphPass, n *callgraph.Node) string {
	chain := gp.Graph.HotChain(n)
	if len(chain) == 0 {
		return "?"
	}
	return chain[0].Name
}

// checkNode walks the node's own statements (nested literals are their
// own hot nodes) and reports every allocation-inducing construct.
func checkNode(gp *analysis.GraphPass, n *callgraph.Node) {
	body := n.Body()
	if body == nil {
		return // assembly stub or extern: nothing to inspect
	}
	info := n.Pkg.Info
	w := &walker{gp: gp, node: n, info: info, capBacked: make(map[types.Object]bool), callees: make(map[*ast.Ident]bool)}
	w.prepassCapBacked(body)
	w.walk(body, nil)
}

type walker struct {
	gp   *analysis.GraphPass
	node *callgraph.Node
	info *types.Info
	// capBacked marks slice variables whose backing provably has
	// capacity managed by the caller: carved from a slice expression
	// (pooled scratch reuse, s.buf[:0]) or make'd with an explicit cap.
	// Appends to them stay within capacity in steady state.
	capBacked map[types.Object]bool
	// callees marks identifiers consumed in callee position (pre-order),
	// so method references used as values can be told apart from calls.
	callees map[*ast.Ident]bool
	// allowedLits marks literals judged non-escaping before their
	// pre-order visit: immediately invoked, or handed to a //perf:pooled
	// dispatcher that amortizes them.
	allowedLits map[*ast.FuncLit]bool
}

// prepassCapBacked records which local slice vars are capacity-backed.
// One linear pass in source order is enough: Go requires definition
// before use within a body.
func (w *walker) prepassCapBacked(body *ast.BlockStmt) {
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := w.info.Defs[id]
			if obj == nil {
				obj = w.info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if w.capacityBackedExpr(ast.Unparen(rhs)) {
				w.capBacked[obj] = true
			}
		}
		return true
	})
}

// capacityBackedExpr reports whether e yields a slice whose capacity is
// already owned: a slice expression, a cap-carrying make, or an append
// to something itself capacity-backed.
func (w *walker) capacityBackedExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SliceExpr:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			switch {
			case id.Name == "make" && len(e.Args) == 3:
				return true
			case id.Name == "append" && len(e.Args) > 0:
				return w.firstArgBacked(e)
			}
		}
	}
	return false
}

func (w *walker) firstArgBacked(call *ast.CallExpr) bool {
	first := ast.Unparen(call.Args[0])
	if _, ok := first.(*ast.SliceExpr); ok {
		return true
	}
	if id, ok := first.(*ast.Ident); ok {
		obj := w.info.Uses[id]
		return obj != nil && w.capBacked[obj]
	}
	return false
}

// walk inspects the node's own syntax; rangeStack tracks enclosing
// range statements so un-capped appends can suggest a concrete
// pre-sizing fix.
func (w *walker) walk(nd ast.Node, rangeStack []*ast.RangeStmt) {
	ast.Inspect(nd, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// The literal's body is its own hot node; here only the
			// closure value's allocation is at issue, and that was
			// already judged at its parent call site (checkCall marks
			// allowed literals before descending pre-order).
			if !w.allowedLits[x] {
				w.gp.Reportf(x.Pos(), "closure allocates on the hot path (reachable from %s): hoist it, or pass it through a //perf:pooled dispatcher like parallel.ForEach", root(w.gp, w.node))
			}
			return false
		case *ast.RangeStmt:
			// Recurse manually so the stack reflects nesting.
			if x.Key != nil {
				w.walk(x.Key, rangeStack)
			}
			if x.Value != nil {
				w.walk(x.Value, rangeStack)
			}
			w.walk(x.X, rangeStack)
			w.walk(x.Body, append(rangeStack, x))
			return false
		case *ast.CallExpr:
			w.checkCall(x, rangeStack)
		case *ast.BinaryExpr:
			w.checkStringConcat(x)
		case *ast.AssignStmt:
			w.checkAssign(x)
		case *ast.CompositeLit:
			w.checkCompositeLit(x)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					w.gp.Reportf(x.Pos(), "&composite literal escapes to the heap on the hot path (reachable from %s): reuse a pooled value", root(w.gp, w.node))
					return false // the literal itself needs no second finding
				}
			}
		case *ast.SelectorExpr:
			w.checkMethodValue(x)
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, rangeStack []*ast.RangeStmt) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.allow(lit) // immediately-invoked: no escaping closure value
	}
	id := callIdent(call)
	if id != nil {
		w.callees[id] = true
	}
	fn := funcOf(w.info, id)
	// fmt anywhere on a hot path allocates (boxing + buffer growth).
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		w.gp.Reportf(call.Pos(), "fmt.%s allocates on the hot path (reachable from %s): precompute the string off the hot path or drop it", fn.Name(), root(w.gp, w.node))
	}
	// Literals handed to a pooled dispatcher are amortized by the pool.
	if pooled := w.pooledCallee(fn); pooled {
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				w.allow(lit)
			}
		}
	}
	// Builtins: append growth and make/new.
	if bid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.info.Uses[bid].(*types.Builtin); isBuiltin {
			switch bid.Name {
			case "append":
				w.checkAppend(call, rangeStack)
			case "make":
				w.gp.Reportf(call.Pos(), "make allocates on the hot path (reachable from %s): hoist the buffer into pooled scratch (//perf:pooled acquisition)", root(w.gp, w.node))
			case "new":
				w.gp.Reportf(call.Pos(), "new allocates on the hot path (reachable from %s): reuse a pooled value", root(w.gp, w.node))
			}
			return
		}
	}
	w.checkBoxing(call)
}

func (w *walker) pooledCallee(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	n := w.gp.Graph.NodeOf(fn)
	return n != nil && n.Pooled
}

// checkAppend flags appends whose destination is not provably
// capacity-backed; growth reallocates and copies on the hot path.
func (w *walker) checkAppend(call *ast.CallExpr, rangeStack []*ast.RangeStmt) {
	if len(call.Args) == 0 || w.firstArgBacked(call) {
		return
	}
	dest := types.ExprString(ast.Unparen(call.Args[0]))
	fix := fmt.Sprintf("pre-size the destination (%s := make(T, 0, n) before the loop, or slice pooled scratch to [:0]) so append stays within capacity", dest)
	if len(rangeStack) > 0 {
		if over, ok := ast.Unparen(rangeStack[len(rangeStack)-1].X).(*ast.Ident); ok {
			fix = fmt.Sprintf("length is known: %s := make(T, 0, len(%s)) before the loop, then append stays within capacity", dest, over.Name)
		}
	}
	w.gp.ReportFix(call.Pos(), fix, "un-capped append to %s may grow and reallocate on the hot path (reachable from %s)", dest, root(w.gp, w.node))
}

// checkStringConcat flags non-constant string + on hot paths.
func (w *walker) checkStringConcat(be *ast.BinaryExpr) {
	if be.Op != token.ADD {
		return
	}
	tv, ok := w.info.Types[be]
	if !ok || tv.Value != nil { // constant-folded: free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	w.gp.Reportf(be.Pos(), "string concatenation allocates on the hot path (reachable from %s): precompute or pool the buffer", root(w.gp, w.node))
}

// checkAssign flags += on strings and scalar-into-interface stores.
func (w *walker) checkAssign(as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if t := w.info.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				w.gp.Reportf(as.Pos(), "string += allocates on the hot path (reachable from %s): precompute or pool the buffer", root(w.gp, w.node))
			}
		}
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Rhs {
		lt, rt := w.info.TypeOf(as.Lhs[i]), w.info.TypeOf(as.Rhs[i])
		if w.boxesScalar(lt, rt, as.Rhs[i]) {
			w.gp.Reportf(as.Rhs[i].Pos(), "assignment boxes a scalar into an interface on the hot path (reachable from %s): keep the concrete type", root(w.gp, w.node))
		}
	}
}

// checkCompositeLit flags map and slice composite literals: both
// allocate their backing store. Array and struct literals are
// stack-friendly values and stay legal, as are empty slice literals —
// zero-size allocations resolve to the runtime's shared zero base and
// cost nothing.
func (w *walker) checkCompositeLit(cl *ast.CompositeLit) {
	t := w.info.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		w.gp.Reportf(cl.Pos(), "map literal allocates on the hot path (reachable from %s): hoist it to init or pooled state", root(w.gp, w.node))
	case *types.Slice:
		if len(cl.Elts) == 0 {
			return
		}
		w.gp.Reportf(cl.Pos(), "slice literal allocates on the hot path (reachable from %s): hoist it to a package var or pooled scratch", root(w.gp, w.node))
	}
}

// checkBoxing flags scalar arguments passed to interface-typed
// parameters: each one heap-boxes the value.
func (w *walker) checkBoxing(call *ast.CallExpr) {
	tv, ok := w.info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				continue
			}
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if w.boxesScalar(pt, w.info.TypeOf(arg), arg) {
			w.gp.Reportf(arg.Pos(), "argument boxes a scalar into an interface on the hot path (reachable from %s): avoid the any-typed parameter here", root(w.gp, w.node))
		}
	}
}

// boxesScalar reports whether storing an expression of type rt into a
// location of type lt heap-boxes a scalar: interface destination,
// basic-typed non-constant source.
func (w *walker) boxesScalar(lt, rt types.Type, rhs ast.Expr) bool {
	if lt == nil || rt == nil || !types.IsInterface(lt) {
		return false
	}
	b, ok := rt.Underlying().(*types.Basic)
	if !ok || b.Kind() == types.UntypedNil {
		return false
	}
	if tv, ok := w.info.Types[ast.Unparen(rhs)]; ok && tv.Value != nil {
		return false // constants convert to interfaces via static data
	}
	return b.Info()&(types.IsNumeric|types.IsString|types.IsBoolean) != 0
}

// checkMethodValue flags method values (x.M used as a value): each one
// allocates a bound closure. Plain function references are free.
func (w *walker) checkMethodValue(sel *ast.SelectorExpr) {
	if w.callees[sel.Sel] {
		return
	}
	fn, ok := w.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return // package-qualified function reference: static, no alloc
	}
	// Only a value context allocates; selections that are part of a
	// method *expression* (T.M) have no receiver binding. The Selections
	// map tells them apart.
	if s, ok := w.info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return
	}
	w.gp.Reportf(sel.Pos(), "method value %s allocates a bound closure on the hot path (reachable from %s): call it directly or hoist the binding", types.ExprString(sel), root(w.gp, w.node))
}

func (w *walker) allow(lit *ast.FuncLit) {
	if w.allowedLits == nil {
		w.allowedLits = make(map[*ast.FuncLit]bool)
	}
	w.allowedLits[lit] = true
}

func callIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

func funcOf(info *types.Info, id *ast.Ident) *types.Func {
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
