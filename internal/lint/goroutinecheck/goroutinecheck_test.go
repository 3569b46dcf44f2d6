package goroutinecheck_test

import (
	"testing"

	"repro/internal/lint/goroutinecheck"
	"repro/internal/lint/linttest"
)

func TestFlagged(t *testing.T) {
	linttest.Run(t, goroutinecheck.Analyzer, "testdata/flag", "example.com/worker")
}

// TestServerPath pins the stricter server-path rule (moved here from
// lockcheck): under a serve package path even a bound goroutine is
// flagged.
func TestServerPath(t *testing.T) {
	linttest.Run(t, goroutinecheck.Analyzer, "testdata/serve", "example.com/serve")
}

// TestServePathNegative runs the serve testdata under a non-server
// path: the single-send body is a join handle, so nothing is flagged.
func TestServePathNegative(t *testing.T) {
	diags, _ := linttest.Findings(t, goroutinecheck.Analyzer, "testdata/serve", "example.com/notaserver")
	if len(diags) != 0 {
		t.Fatalf("server-path rule leaked outside server paths: %v", diags)
	}
}

// TestClusterPath pins the sharded-serving-tier policy: under
// internal/cluster the lifecycle-bound rule applies (a ctx-bounded
// select shape passes, fire-and-forget is flagged) — the package is
// neither a banned server path nor an exempt substrate.
func TestClusterPath(t *testing.T) {
	linttest.Run(t, goroutinecheck.Analyzer, "testdata/cluster", "example.com/internal/cluster")
}

// TestExemptPaths pins that the concurrency substrates own their raw
// goroutines: under internal/parallel or internal/drift nothing is
// flagged.
func TestExemptPaths(t *testing.T) {
	for _, path := range []string{"example.com/internal/parallel", "example.com/internal/drift"} {
		diags, _ := linttest.Findings(t, goroutinecheck.Analyzer, "testdata/flag", path)
		if len(diags) != 0 {
			t.Fatalf("exempt path %s still flagged: %v", path, diags)
		}
	}
}
