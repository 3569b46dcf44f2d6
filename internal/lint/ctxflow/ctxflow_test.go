package ctxflow_test

import (
	"testing"

	"repro/internal/lint/ctxflow"
	"repro/internal/lint/linttest"
)

func TestFlagged(t *testing.T) {
	linttest.Run(t, ctxflow.Analyzer, "testdata/flag", "example.com/flow")
}

// TestMainExempt pins that process entry points may root the context
// tree with context.Background.
func TestMainExempt(t *testing.T) {
	diags, _ := linttest.Findings(t, ctxflow.Analyzer, "testdata/mainpkg", "example.com/cmd/mainpkg")
	if len(diags) != 0 {
		t.Fatalf("package main must be exempt from the Background rule, got: %v", diags)
	}
}
