package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRepositoryIsClean is the smoke test the CI lint shard mirrors:
// the full analyzer suite over the whole module must produce zero
// findings. If this fails, either fix the code
// or add a //lint:allow with a reason where the invariant is enforced
// elsewhere.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow")
	}
	var buf bytes.Buffer
	n, err := lint.Run(&buf, []string{"./..."}, lint.Config{Dir: "../.."})
	if err != nil {
		t.Fatalf("varlint: %v", err)
	}
	if n != 0 {
		t.Fatalf("varlint found %d finding(s):\n%s", n, buf.String())
	}
}

func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	for _, name := range []string{"nondeterminism", "floatcheck", "errflow", "lockcheck"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnosis: %s", errb.String())
	}
}
