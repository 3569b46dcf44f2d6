package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// writeProbeModule lays down a minimal single-package module for the
// driver to analyze and returns its root.
func writeProbeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module probe\n\ngo 1.22\n",
		"a.go":   "package a\n\nfunc A() int { return 1 }\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestFormats pins the json and github renderings of a finding so the
// CI consumer contract cannot drift silently.
func TestFormats(t *testing.T) {
	dir := writeProbeModule(t)
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "test analyzer",
		Run: func(pass *analysis.Pass) error {
			pass.Reportf(pass.Files[0].Pos(), "%s", "message with 100% certainty")
			return nil
		},
	}
	run := func(format string) string {
		var buf bytes.Buffer
		n, err := lint.Run(&buf, []string{"./..."}, lint.Config{
			Analyzers: []*analysis.Analyzer{probe},
			Dir:       dir,
			Format:    format,
		})
		if err != nil {
			t.Fatalf("lint.Run(%s): %v", format, err)
		}
		if n != 1 {
			t.Fatalf("lint.Run(%s): %d finding(s), want 1", format, n)
		}
		return buf.String()
	}

	github := run("github")
	want := "::error file=a.go,line=1,col=1,title=varlint/probe::message with 100%25 certainty\n"
	if github != want {
		t.Errorf("github format:\n got %q\nwant %q", github, want)
	}

	jsonOut := run("json")
	for _, frag := range []string{`"pkg": "probe"`, `"path": "a.go"`, `"analyzer": "probe"`, `"message": "message with 100% certainty"`} {
		if !bytes.Contains([]byte(jsonOut), []byte(frag)) {
			t.Errorf("json format missing %s:\n%s", frag, jsonOut)
		}
	}
}
