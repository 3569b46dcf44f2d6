// Package lint is the varlint driver: it loads packages, runs the
// analyzer suite, applies //lint:allow suppressions, and renders every
// finding that remains.
//
// The suite machine-checks the invariants this repository's results
// rest on — bit-reproducible randomness and clocks (nondeterminism),
// NaN-free numerics (floatcheck), wrapped error chains (errflow),
// branch-safe locking (lockcheck), atomic-only file replacement
// (pathpolicy), context propagation (ctxflow) and goroutine lifecycle
// binding (goroutinecheck). Allocation budgets are not a lint rule: the
// AllocsPerRun tests in internal/ml/knn and internal/core measure them.
//
// Every analyzer runs package by package over type-checked syntax, and
// each package's //lint:allow directives are checked against that
// package's findings: a directive without a reason, or one that
// suppresses nothing for an analyzer that ran, is an error. See README
// "Static analysis" for the policy and cmd/varlint for the CLI.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
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

// Run executes the suite over the packages matching patterns, printing
// findings to w. It returns the number of unsuppressed findings; err is
// reserved for operational failures (load errors, malformed or stale
// directives).
func Run(w io.Writer, patterns []string, cfg Config) (int, error) {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = Suite()
	}
	loader, err := load.New(cfg.Dir, patterns...)
	if err != nil {
		return 0, err
	}
	root := moduleRoot(cfg.Dir)

	var all []Finding
	var directiveErrs []string
	for _, m := range loader.Metas() {
		if strings.Contains(m.Path, "/lint/") && strings.Contains(m.Dir, "testdata") {
			continue
		}
		fs, derrs, err := analyzePackage(loader, m, analyzers, root)
		if err != nil {
			return 0, err
		}
		directiveErrs = append(directiveErrs, derrs...)
		all = append(all, fs...)
	}
	if len(directiveErrs) > 0 {
		return 0, fmt.Errorf("malformed or stale //lint:allow directives (a reason is mandatory, and each must suppress a finding):\n  %s", strings.Join(directiveErrs, "\n  "))
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

// analyzePackage type-checks one package and runs every analyzer,
// returning post-suppression findings plus any malformed or stale
// directive errors.
func analyzePackage(loader *load.Loader, m *load.Meta, analyzers []*analysis.Analyzer, root string) ([]Finding, []string, error) {
	pkg, err := loader.Check(m.Path)
	if err != nil {
		return nil, nil, err
	}
	var diags []analysis.Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
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
	kept, derrs := FilterSuppressed(loader.Fset, pkg.Files, diags, ran)
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
	return out, derrs, nil
}
