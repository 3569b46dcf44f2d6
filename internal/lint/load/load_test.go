package load

import "testing"

// TestOverlappingPatternsCheckEachPackageOnce loads a package together
// with one of its own dependencies. Every module package the patterns
// reach must be type-checked once, by the Loader: had the unmatched
// dependency internal/core gone through the source importer, it would
// have brought a second internal/obs, and serve's *obs.Tracer would
// not be the Loader's *obs.Tracer.
func TestOverlappingPatternsCheckEachPackageOnce(t *testing.T) {
	l, err := New("../../..", "./internal/serve/", "./internal/obs/")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	matched := map[string]bool{}
	for _, m := range l.Metas() {
		matched[m.Path] = true
	}
	if len(matched) != 2 || !matched["repro/internal/obs"] || !matched["repro/internal/serve"] {
		t.Fatalf("Metas = %v, want internal/obs and internal/serve only", matched)
	}
	serve, err := l.Check("repro/internal/serve")
	if err != nil {
		t.Fatalf("Check(serve): %v", err)
	}
	obs, err := l.Check("repro/internal/obs")
	if err != nil {
		t.Fatalf("Check(obs): %v", err)
	}
	for _, imp := range serve.Types.Imports() {
		if imp.Path() == "repro/internal/obs" && imp != obs.Types {
			t.Fatal("serve imports a second copy of internal/obs")
		}
	}
	core, err := l.Check("repro/internal/core")
	if err != nil {
		t.Fatalf("Check(core): %v", err)
	}
	for _, imp := range core.Types.Imports() {
		if imp.Path() == "repro/internal/obs" && imp != obs.Types {
			t.Fatal("core imports a second copy of internal/obs")
		}
	}
}
