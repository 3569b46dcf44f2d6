package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// probe reports one finding at the top of each package's first file.
var probe = &analysis.Analyzer{
	Name: "probe",
	Doc:  "test analyzer",
	Run: func(pass *analysis.Pass) error {
		pass.Reportf(pass.Files[0].Pos(), "%s", "message with 100% certainty")
		return nil
	},
}

// writeProbeModule lays down a minimal single-package module whose
// one file has source src, and returns its root.
func writeProbeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module probe\n\ngo 1.22\n",
		"a.go":   src,
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
	dir := writeProbeModule(t, "package a\n\nfunc A() int { return 1 }\n")
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

// TestStaleDirectiveFailsRun pins lint.Run's side of stale
// suppressions: a directive for an analyzer that ran but suppressed
// nothing is an operational error, and one for an analyzer left out of
// the run is not.
func TestStaleDirectiveFailsRun(t *testing.T) {
	dir := writeProbeModule(t, "//lint:allow probe the package clause is the finding\npackage a\n\n"+
		"//lint:allow probe nothing on this line is reported\n"+
		"//lint:allow other this analyzer is not in the run\n"+
		"func A() int { return 1 }\n")
	var buf bytes.Buffer
	_, err := lint.Run(&buf, []string{"./..."}, lint.Config{Analyzers: []*analysis.Analyzer{probe}, Dir: dir})
	if err == nil {
		t.Fatal("lint.Run accepted a stale directive")
	}
	msg := err.Error()
	if !strings.Contains(msg, "a.go:4:1: //lint:allow probe nothing") || strings.Count(msg, "suppresses no finding") != 1 {
		t.Fatalf("want exactly the stale probe directive at a.go:4 reported, got:\n%s", msg)
	}
}
