package pathpolicy

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/internal/lint/analysis"
)

// Analyzer confines destructive filesystem calls to the packages that
// own an atomic write-rename helper.
var Analyzer = &analysis.Analyzer{
	Name: "pathpolicy",
	Doc: "flag os.Remove / os.RemoveAll / os.Rename outside internal/modelstore: " +
		"file replacement must go through the model store's atomic " +
		"write-temp-then-rename helper so a crash never leaves a half-written " +
		"artifact behind",
	Run: run,
}

// ExemptPathPattern selects the packages allowed to call the
// destructive trio directly: the model store owns the one sanctioned
// write-temp-then-rename helper (and the cleanup of its own temp
// files).
var ExemptPathPattern = regexp.MustCompile(`(^|/)modelstore$`)

// banned is the set of os functions confined by the policy.
var banned = map[string]bool{
	"Remove": true, "RemoveAll": true, "Rename": true,
}

func run(pass *analysis.Pass) error {
	if ExemptPathPattern.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			if !isOSPackage(pass, sel.X) {
				return true
			}
			pass.Reportf(call.Pos(), "os.%s outside internal/modelstore: replace files through the model store's atomic write-rename helper (or justify with //lint:allow)", sel.Sel.Name)
			return true
		})
	}
	return nil
}

// isOSPackage reports whether expr names the standard os package,
// resolving through import aliases.
func isOSPackage(pass *analysis.Pass, expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "os"
}
