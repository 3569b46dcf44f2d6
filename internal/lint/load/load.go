// Package load locates, parses, and type-checks the packages varlint
// analyzes.
//
// Package discovery shells out to `go list -deps -json` (the only
// reliable arbiter of build constraints and module paths), while
// type-checking runs in-process: every package inside this module that
// the patterns reach — matched or only imported — is checked once from
// its parsed syntax, and imports that leave the module (the standard
// library — the module has no external dependencies) fall back to the
// compiler's source importer. A module package must never reach the
// source importer: it would be checked a second time, and its types
// would not be identical to the Loader's copy. Test files are excluded
// on purpose: the analyzers guard production invariants, and tests
// legitimately use wall clocks, ad-hoc randomness, and float literals.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Meta is one `go list` package record, before type-checking.
type Meta struct {
	Path    string // import path
	Name    string // package name
	Dir     string // directory on disk
	GoFiles []string
}

// Package is a parsed, type-checked package ready for analysis.
type Package struct {
	Meta  *Meta
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader resolves and type-checks packages on demand, memoizing both
// the module-internal results and the source-importer fallback so each
// package is checked at most once per process.
type Loader struct {
	Fset    *token.FileSet
	metas   []*Meta          // matched by the patterns
	byPath  map[string]*Meta // every module package the patterns reach
	checked map[string]*Package
	failed  map[string]error
	srcImp  types.ImporterFrom
}

// New runs `go list -deps` in dir (the module root; "" means the
// process working directory) over the given patterns and returns a
// Loader for the matched packages and their module dependencies.
func New(dir string, patterns ...string) (*Loader, error) {
	metas, deps, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		metas:   metas,
		byPath:  make(map[string]*Meta, len(metas)+len(deps)),
		checked: make(map[string]*Package),
		failed:  make(map[string]error),
		srcImp:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	for _, m := range append(deps, metas...) {
		l.byPath[m.Path] = m
	}
	return l, nil
}

// Metas lists the matched packages, sorted by import path.
func (l *Loader) Metas() []*Meta { return l.metas }

// Check parses and type-checks the module package at path (matched or
// only imported), memoized.
func (l *Loader) Check(path string) (*Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	if err, ok := l.failed[path]; ok {
		return nil, err
	}
	m, ok := l.byPath[path]
	if !ok {
		return nil, fmt.Errorf("load: package %s is not a module package the loader's patterns reach", path)
	}
	p, err := l.check(m)
	if err != nil {
		l.failed[path] = err
		return nil, err
	}
	l.checked[path] = p
	return p, nil
}

func (l *Loader) check(m *Meta) (*Package, error) {
	files := make([]*ast.File, 0, len(m.GoFiles))
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(m.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	pkg, err := conf.Check(m.Path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %w", m.Path, err)
	}
	return &Package{Meta: m, Files: files, Types: pkg, Info: info}, nil
}

// loaderImporter routes module-internal imports through the Loader
// (sharing syntax, FileSet, and results with the analysis passes) and
// everything else through the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.byPath[path]; ok {
		p, err := l.Check(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.srcImp.ImportFrom(path, srcDir, mode)
}

// goList shells out to the go command for package metadata: the
// module packages the patterns match, and the module packages they
// only import. Standard-library packages are left to the source
// importer.
func goList(dir string, patterns []string) (matched, deps []*Meta, err error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Name,Dir,GoFiles,Standard,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("load: go list %s: %w\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	for dec.More() {
		var rec struct {
			ImportPath string
			Name       string
			Dir        string
			GoFiles    []string
			Standard   bool
			DepOnly    bool
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, nil, fmt.Errorf("load: decode go list output: %w", err)
		}
		if rec.Standard || len(rec.GoFiles) == 0 {
			continue // standard library, or a test-only or empty package
		}
		sort.Strings(rec.GoFiles)
		m := &Meta{
			Path:    rec.ImportPath,
			Name:    rec.Name,
			Dir:     rec.Dir,
			GoFiles: rec.GoFiles,
		}
		if rec.DepOnly {
			deps = append(deps, m)
		} else {
			matched = append(matched, m)
		}
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].Path < matched[j].Path })
	return matched, deps, nil
}
