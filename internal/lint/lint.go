// Package lint is the varlint driver: it loads packages, runs the
// analyzer suite, applies //lint:allow suppressions, and renders every
// finding that remains.
//
// The suite machine-checks the invariants this repository's results
// rest on — bit-reproducible randomness and clocks (nondeterminism),
// NaN-free numerics (floatcheck), wrapped error chains (errflow),
// branch-safe locking (lockcheck), and atomic-only file
// replacement (pathpolicy) — plus two whole-program checks built on
// the cross-package call graph: context propagation (ctxflow) and
// goroutine lifecycle binding (goroutinecheck). Allocation budgets are
// not a lint rule: the AllocsPerRun tests in internal/ml/knn and
// internal/core measure them.
//
// Per-package analyzers run package by package; graph analyzers run
// once over the whole program after every package is type-checked.
// See README "Static analysis" for the policy and cmd/varlint for the
// CLI.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/errflow"
	"repro/internal/lint/floatcheck"
	"repro/internal/lint/goroutinecheck"
	"repro/internal/lint/load"
	"repro/internal/lint/lockcheck"
	"repro/internal/lint/nondeterminism"
	"repro/internal/lint/pathpolicy"
)

// Suite is the default analyzer set, in report order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nondeterminism.Analyzer,
		floatcheck.Analyzer,
		errflow.Analyzer,
		lockcheck.Analyzer,
		pathpolicy.Analyzer,
		ctxflow.Analyzer,
		goroutinecheck.Analyzer,
	}
}

// Config tunes one Run.
type Config struct {
	// Analyzers is the suite to run (default: Suite()).
	Analyzers []*analysis.Analyzer
	// Dir is the module root to run `go list` in ("" = cwd).
	Dir string
	// Format selects the rendering: "text" (default), "json" (the
	// Finding array), or "github" (GitHub Actions workflow commands, one
	// ::error per finding).
	Format string
	// Fix, in text format, prints the mechanical suggested rewrite under
	// each finding that carries one — a dry-run listing; nothing is
	// applied.
	Fix bool
}

// Finding is one rendered diagnostic.
type Finding struct {
	Pkg      string `json:"pkg"`
	File     string `json:"file"` // path relative to the package dir
	Path     string `json:"path"` // path relative to the module root
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Fix is a mechanical suggested rewrite, when the analyzer offers
	// one (report-only; printed by varlint -fix).
	Fix string `json:"fix,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s/%s:%d:%d: %s: %s", f.Pkg, f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// splitSuite partitions analyzers into per-package and whole-program
// sets.
func splitSuite(analyzers []*analysis.Analyzer) (perPkg, graph []*analysis.Analyzer) {
	for _, a := range analyzers {
		if a.RunGraph != nil {
			graph = append(graph, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}
	return perPkg, graph
}

// Run executes the suite over the packages matching patterns, printing
// findings to w. It returns the number of unsuppressed findings; err is
// reserved for operational failures (load errors, malformed
// directives).
func Run(w io.Writer, patterns []string, cfg Config) (int, error) {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = Suite()
	}
	perPkg, graph := splitSuite(analyzers)
	loader, err := load.New(cfg.Dir, patterns...)
	if err != nil {
		return 0, err
	}
	root := moduleRoot(cfg.Dir)

	var metas []*load.Meta
	for _, m := range loader.Metas() {
		if strings.Contains(m.Path, "/lint/") && strings.Contains(m.Dir, "testdata") {
			continue
		}
		metas = append(metas, m)
	}

	var all []Finding
	var directiveErrs []string
	for _, m := range metas {
		fs, derrs, err := analyzePackage(loader, m, perPkg, root)
		if err != nil {
			return 0, err
		}
		directiveErrs = append(directiveErrs, derrs...)
		all = append(all, fs...)
	}
	if len(directiveErrs) > 0 {
		return 0, fmt.Errorf("malformed //lint:allow directives (a reason is mandatory):\n  %s", strings.Join(directiveErrs, "\n  "))
	}

	if len(graph) > 0 {
		fs, err := runGraphAnalyzers(loader, metas, graph, root)
		if err != nil {
			return 0, err
		}
		all = append(all, fs...)
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Message < b.Message
	})

	if err := render(w, all, cfg); err != nil {
		return 0, err
	}
	return len(all), nil
}

// render writes the kept findings in the configured format.
func render(w io.Writer, kept []Finding, cfg Config) error {
	switch cfg.Format {
	case "", "text":
		fixes := 0
		for _, f := range kept {
			_, _ = fmt.Fprintln(w, f.String())
			if cfg.Fix && f.Fix != "" {
				_, _ = fmt.Fprintf(w, "    fix (dry run): %s\n", f.Fix)
				fixes++
			}
		}
		if cfg.Fix {
			_, _ = fmt.Fprintf(w, "varlint: %d finding(s) carry a mechanical fix (dry run; nothing applied)\n", fixes)
		}
	case "json":
		if kept == nil {
			kept = []Finding{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(kept)
	case "github":
		for _, f := range kept {
			_, _ = fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=varlint/%s::%s\n",
				githubEscapeProp(f.Path), f.Line, f.Col, githubEscapeProp(f.Analyzer), githubEscapeData(f.Message))
		}
	default:
		return fmt.Errorf("lint: unknown format %q (want text, json, or github)", cfg.Format)
	}
	return nil
}

// githubEscapeData escapes a workflow-command message value.
func githubEscapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// githubEscapeProp escapes a workflow-command property value.
func githubEscapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

// moduleRoot resolves cfg.Dir to an absolute module root for
// module-relative finding paths.
func moduleRoot(dir string) string {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}

// analyzePackage type-checks one package and runs every per-package
// analyzer, returning post-suppression findings plus any
// malformed-directive errors.
func analyzePackage(loader *load.Loader, m *load.Meta, analyzers []*analysis.Analyzer, root string) ([]Finding, []string, error) {
	pkg, err := loader.Check(m.Path)
	if err != nil {
		return nil, nil, err
	}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      loader.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, m.Path, err)
		}
	}
	kept, derrs := FilterSuppressed(loader.Fset, pkg.Files, diags)
	return findingsFrom(loader, m, kept, root), derrs, nil
}

// findingsFrom converts post-suppression diagnostics into Findings
// anchored to package m.
func findingsFrom(loader *load.Loader, m *load.Meta, kept []analysis.Diagnostic, root string) []Finding {
	var out []Finding
	for _, d := range kept {
		pos := loader.Fset.Position(d.Pos)
		file, err := filepath.Rel(m.Dir, pos.Filename)
		if err != nil {
			file = filepath.Base(pos.Filename)
		}
		path, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			path = file
		}
		out = append(out, Finding{
			Pkg:      m.Path,
			File:     file,
			Path:     filepath.ToSlash(path),
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Fix:      d.Fix,
		})
	}
	return out
}

// runGraphAnalyzers type-checks every package, builds the program call
// graph, and runs the whole-program analyzers. Findings are attributed
// to packages by position and suppressed with each package's own
// directives.
func runGraphAnalyzers(loader *load.Loader, metas []*load.Meta, graph []*analysis.Analyzer, root string) ([]Finding, error) {
	pkgs, byPath, err := checkAll(loader, metas)
	if err != nil {
		return nil, err
	}
	g := callgraph.Build(loader.Fset, pkgs)
	fileOwner := make(map[string]*load.Meta)
	for _, m := range metas {
		for _, name := range m.GoFiles {
			fileOwner[filepath.Join(m.Dir, name)] = m
		}
	}
	perPkgDiags := make(map[string][]analysis.Diagnostic)
	for _, a := range graph {
		gp := &analysis.GraphPass{
			Analyzer: a,
			Fset:     loader.Fset,
			Pkgs:     pkgs,
			Graph:    g,
			Report: func(d analysis.Diagnostic) {
				pos := loader.Fset.Position(d.Pos)
				if m := fileOwner[pos.Filename]; m != nil {
					perPkgDiags[m.Path] = append(perPkgDiags[m.Path], d)
				}
			},
		}
		if err := a.RunGraph(gp); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	var out []Finding
	for _, m := range metas {
		diags := perPkgDiags[m.Path]
		if len(diags) == 0 {
			continue
		}
		// Malformed directives are ignored here: the per-package phase
		// already surfaced them for every package.
		kept, _ := FilterSuppressed(loader.Fset, byPath[m.Path].Files, diags)
		out = append(out, findingsFrom(loader, m, kept, root)...)
	}
	return out, nil
}

// checkAll type-checks every package and wraps the results for the call
// graph builder.
func checkAll(loader *load.Loader, metas []*load.Meta) ([]*callgraph.Package, map[string]*load.Package, error) {
	pkgs := make([]*callgraph.Package, 0, len(metas))
	byPath := make(map[string]*load.Package, len(metas))
	for _, m := range metas {
		pkg, err := loader.Check(m.Path)
		if err != nil {
			return nil, nil, err
		}
		byPath[m.Path] = pkg
		pkgs = append(pkgs, &callgraph.Package{Path: m.Path, Dir: m.Dir, Files: pkg.Files, Types: pkg.Types, Info: pkg.Info})
	}
	return pkgs, byPath, nil
}
