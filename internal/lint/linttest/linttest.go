// Package linttest is the repository's analysistest harness: it
// type-checks a self-contained testdata package, runs one analyzer over
// it, applies the //lint:allow suppression filter, and matches the
// surviving diagnostics against `// want "substring"` markers in the
// source.
//
// A marker asserts that the analyzer reports a finding on its line
// whose message contains the quoted substring; several markers may sit
// on one line. A finding with no marker, or a marker with no finding,
// fails the test. Testdata packages import only the standard library so
// that type-checking needs no module resolution.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// wantRE matches one `// want "..."` marker clause. Markers may stack:
// `// want "a" "b"`.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run type-checks the .go files in dir as a package with import path
// pkgPath, runs a over it, filters suppressions, and diffs the result
// against the `// want` markers. pkgPath matters: path-scoped analyzer
// policy (the internal/randx exemption, goroutinecheck's server-path
// rule) keys off it. A malformed or stale //lint:allow directive fails
// the test.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	diags, malformed := Findings(t, a, dir, pkgPath)
	if len(malformed) > 0 {
		t.Fatalf("malformed or stale //lint:allow directives:\n%s", strings.Join(malformed, "\n"))
	}
	checkExpectations(t, diags, dir)
}

// Findings is the low-level entry point: it returns the
// post-suppression diagnostics (as "file:line: message" strings sorted
// by position) and the malformed- or stale-directive descriptions,
// letting tests assert on suppression mechanics directly.
func Findings(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) (diags []string, malformed []string) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	var raw []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { raw = append(raw, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	kept, malformed := lint.FilterSuppressed(fset, files, raw, map[string]bool{a.Name: true})
	for _, d := range kept {
		pos := fset.Position(d.Pos)
		diags = append(diags, fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message))
	}
	sort.Strings(diags)
	return diags, malformed
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}

// checkExpectations diffs diagnostics (as rendered by Findings) against
// the // want markers found in dir's sources.
func checkExpectations(t *testing.T, diags []string, dir string) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	want := make(map[key][]string)
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("reparse %s: %v", dir, err)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{filepath.Base(pos.Filename), pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					want[k] = append(want[k], m[1])
				}
			}
		}
	}
	unmatched := make(map[key][]string, len(want))
	for k, v := range want {
		unmatched[k] = append([]string(nil), v...)
	}
	for _, d := range diags {
		parts := strings.SplitN(d, ":", 3)
		var line int
		_, _ = fmt.Sscanf(parts[1], "%d", &line)
		k := key{parts[0], line}
		matched := false
		for i, w := range unmatched[k] {
			if strings.Contains(parts[2], w) {
				unmatched[k] = append(unmatched[k][:i], unmatched[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for k, ws := range unmatched {
		for _, w := range ws {
			t.Errorf("%s:%d: expected a finding containing %q, got none", k.file, k.line, w)
		}
	}
}
