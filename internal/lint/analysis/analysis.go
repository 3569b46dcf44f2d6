// Package analysis is the minimal analyzer framework behind varlint.
//
// It mirrors the shape of golang.org/x/tools/go/analysis — an Analyzer
// owns a name, a doc string, and a Run function over a type-checked
// Pass — but is built entirely on the standard library so the module
// stays dependency-free. Analyzers receive fully type-checked syntax
// for one package at a time and report Diagnostics through the Pass;
// drivers (cmd/varlint, internal/lint/linttest) own loading, suppression
// and exit codes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in findings, //lint:allow directives,
	// and the driver's -analyzers flag. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description printed by varlint -list.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one package's type-checked syntax through an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. Drivers install it.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Fix, when non-empty, is a mechanical suggested rewrite for the
	// finding — report-only, printed by `varlint -fix`.
	Fix string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// ReportFix reports a finding that carries a mechanical suggested
// rewrite, surfaced by `varlint -fix` as a dry-run listing.
func (p *Pass) ReportFix(pos token.Pos, fix, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...), Fix: fix})
}

// FuncObj resolves the called function object of call, or nil when the
// callee is not a simple identifier or selector (method values through
// interfaces still resolve; computed function values do not).
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
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

// IsPkgFunc reports whether obj is the package-level function (not a
// method) pkgPath.name.
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// IsFloat reports whether t's underlying type is a floating-point basic
// type (or an untyped float constant type). A nil type is not a float.
func IsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// ReturnsError reports whether t (a call's result type) is error or a
// tuple containing an error.
func ReturnsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if IsErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return IsErrorType(t)
}

// IsErrorType reports whether t is the built-in error interface (or a
// type that implements it and is declared as error-typed; the check is
// identity with the universe error, which is what result signatures
// use).
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// ImplementsError reports whether t implements the error interface.
func ImplementsError(t types.Type) bool {
	iface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return iface != nil && types.Implements(t, iface)
}

// StmtLists returns every []ast.Stmt list nested under root: block
// bodies, case clauses, and comm clauses. It is the traversal primitive
// for checks that need statement ordering within one scope.
func StmtLists(root ast.Node) [][]ast.Stmt {
	var lists [][]ast.Stmt
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			lists = append(lists, n.List)
		case *ast.CaseClause:
			lists = append(lists, n.Body)
		case *ast.CommClause:
			lists = append(lists, n.Body)
		}
		return true
	})
	return lists
}
