package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
)

// directivePrefix is the suppression comment form:
//
//	//lint:allow <analyzer> <reason...>
//
// The directive silences findings of <analyzer> on its own line and on
// the line directly below it (so it can sit above the offending
// statement). The reason is mandatory: a suppression without a
// documented justification is itself an error. So is a stale one: a
// directive for an analyzer that ran but that suppresses no finding.
const directivePrefix = "//lint:allow"

type directive struct {
	analyzer string
	raw      string
	pos      string
	used     bool
}

// FilterSuppressed drops diagnostics covered by a well-formed
// //lint:allow directive and returns the survivors plus a description
// of every malformed directive (missing analyzer or reason) and every
// stale one: a directive naming an analyzer in ran that suppressed
// none of diags. diags must hold every finding of those analyzers over
// files. Directives for analyzers that did not run (including "all",
// which names no analyzer) are never stale.
func FilterSuppressed(fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic, ran map[string]bool) ([]analysis.Diagnostic, []string) {
	// file -> line -> directives
	byFile := make(map[string]map[int][]*directive)
	var all []*directive
	var malformed []string
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, pos.String()+": "+c.Text)
					continue
				}
				d := &directive{analyzer: fields[0], raw: c.Text, pos: pos.String()}
				all = append(all, d)
				m := byFile[pos.Filename]
				if m == nil {
					m = make(map[int][]*directive)
					byFile[pos.Filename] = m
				}
				// Cover the directive's own line and the next line.
				m[pos.Line] = append(m[pos.Line], d)
				m[pos.Line+1] = append(m[pos.Line+1], d)
			}
		}
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range byFile[pos.Filename][pos.Line] {
			if dir.analyzer == d.Analyzer || dir.analyzer == "all" {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, d := range all {
		if ran[d.analyzer] && !d.used {
			malformed = append(malformed, d.pos+": "+d.raw+" (suppresses no finding)")
		}
	}
	return kept, malformed
}
