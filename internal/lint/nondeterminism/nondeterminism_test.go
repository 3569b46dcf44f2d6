package nondeterminism_test

import (
	"strings"
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/nondeterminism"
)

func TestFlagged(t *testing.T) {
	linttest.Run(t, nondeterminism.Analyzer, "testdata/flag", "example.com/a")
}

// TestRandxExempt pins the sanctioned escape hatch: a package whose
// import path ends in internal/randx may touch the ambient clock.
func TestRandxExempt(t *testing.T) {
	linttest.Run(t, nondeterminism.Analyzer, "testdata/randx", "example.com/internal/randx")
}

// TestNoFalseExempt makes sure the exemption really keys off the import
// path: the same source under a non-randx path is flagged.
func TestNoFalseExempt(t *testing.T) {
	diags, _ := linttest.Findings(t, nondeterminism.Analyzer, "testdata/randx", "example.com/randxish")
	if len(diags) != 1 || !strings.Contains(diags[0], "time.Now") {
		t.Fatalf("want exactly the time.Now finding under a non-exempt path, got %v", diags)
	}
}

func TestSuppression(t *testing.T) {
	linttest.Run(t, nondeterminism.Analyzer, "testdata/suppress", "example.com/s")
}

func TestMissingReasonIsError(t *testing.T) {
	diags, malformed := linttest.Findings(t, nondeterminism.Analyzer, "testdata/badallow", "example.com/s")
	if len(malformed) != 1 {
		t.Fatalf("want 1 malformed directive, got %d: %v", len(malformed), malformed)
	}
	if len(diags) != 1 || !strings.Contains(diags[0], "time.Now") {
		t.Fatalf("a malformed directive must not suppress its finding; got %v", diags)
	}
}

// TestStaleDirectiveIsError pins that a directive which suppresses no
// finding of an analyzer that ran is reported, and that a directive for
// an analyzer that did not run is not.
func TestStaleDirectiveIsError(t *testing.T) {
	diags, bad := linttest.Findings(t, nondeterminism.Analyzer, "testdata/stale", "example.com/s")
	if len(diags) != 0 {
		t.Fatalf("want no findings, got %v", diags)
	}
	if len(bad) != 1 || !strings.Contains(bad[0], "a.go:10:") || !strings.Contains(bad[0], "suppresses no finding") {
		t.Fatalf("want exactly the stale nondeterminism directive at a.go:10, got %v", bad)
	}
}
