// Command varlint runs the repository's custom static-analysis suite —
// the machine-checked form of the determinism, float-hygiene, error-
// flow, concurrency, and context-propagation contracts documented in
// README ("Static analysis").
//
// Usage:
//
//	go run ./cmd/varlint ./...
//	go run ./cmd/varlint -analyzers nondeterminism,floatcheck ./internal/stats
//	go run ./cmd/varlint -format github ./...
//	go run ./cmd/varlint -fix ./...
//	go run ./cmd/varlint -list
//
// -format selects text (default), json (the Finding array), or github
// (GitHub Actions ::error workflow commands, consumed by the CI lint
// job). -fix prints the mechanical suggested rewrite under each finding
// that carries one — a dry run; nothing is modified.
//
// Exit status: 0 when clean, 1 on findings, 2 on operational errors
// (including //lint:allow directives without a reason).
//
// Suppressions: `//lint:allow <analyzer> <reason>` on the finding's
// line or the line above. The reason is mandatory. There is no baseline
// of tolerated findings: every finding that is not suppressed fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("varlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names  = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list   = fs.Bool("list", false, "list the analyzers and exit")
		format = fs.String("format", "text", "output format: text, json, or github")
		fix    = fs.Bool("fix", false, "print mechanical suggested rewrites (dry run; nothing is applied)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := lint.Suite()
	if *list {
		for _, a := range suite {
			_, _ = fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *names != "" {
		byName := make(map[string]*analysis.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*names, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				_, _ = fmt.Fprintf(stderr, "varlint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := lint.Run(stdout, patterns, lint.Config{
		Analyzers: suite,
		Format:    *format,
		Fix:       *fix,
	})
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "varlint: %v\n", err)
		return 2
	}
	if n > 0 {
		_, _ = fmt.Fprintf(stderr, "varlint: %d finding(s)\n", n)
		return 1
	}
	return 0
}
