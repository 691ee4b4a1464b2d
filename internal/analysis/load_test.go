package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLoadModulePackages proves the source loader can resolve and fully
// type-check real module packages (and their stdlib closure) without any
// external tooling.
func TestLoadModulePackages(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath != "repro" {
		t.Fatalf("module path = %q, want repro", l.ModulePath)
	}
	pkgs, err := l.Load(
		filepath.Join(l.ModuleDir, "internal/extract"),
		filepath.Join(l.ModuleDir, "internal/imaging"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	img := byPath["repro/internal/imaging"]
	if img == nil {
		t.Fatal("imaging package not loaded")
	}
	if obj := img.Types.Scope().Lookup("GetBinary"); obj == nil {
		t.Error("imaging.GetBinary not found in type info")
	}
	ext := byPath["repro/internal/extract"]
	if ext == nil {
		t.Fatal("extract package not loaded")
	}
	// Full bodies: the Info maps must cover expressions inside functions.
	if len(ext.Info.Uses) == 0 {
		t.Error("extract package has empty Uses map — bodies not checked")
	}
	// Spot-check cross-package type resolution.
	obj := ext.Types.Scope().Lookup("Extractor")
	if obj == nil {
		t.Fatal("extract.Extractor not found")
	}
	if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
		t.Errorf("extract.Extractor is %T, want struct", obj.Type().Underlying())
	}
}

// TestLoadWholeModule loads every package in the repo, which is what
// cmd/sljcheck does on each CI run.
func TestLoadWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(l.ModuleDir + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from ./...", len(pkgs))
	}
}

// writeFixtureModule lays out a throwaway module for loader edge-case
// tests and returns its root.
func writeFixtureModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixmod\n\ngo 1.21\n"
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadBuildTags proves parseDir honours build constraints: a file
// excluded by //go:build (wrong GOOS and a never-true tag) must not be
// parsed, so its (deliberately conflicting) declarations never reach the
// type checker.
func TestLoadBuildTags(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"tagged/a.go":         "package tagged\n\nconst Mode = \"portable\"\n",
		"tagged/b_never.go":   "//go:build never\n\npackage tagged\n\nconst Mode = \"never\"\n",
		"tagged/c_otheros.go": "//go:build plan9\n\npackage tagged\n\nconst Mode = \"plan9\"\n",
	})
	if runtime.GOOS == "plan9" {
		t.Skip("fixture assumes GOOS != plan9")
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadTarget("fixmod/tagged", filepath.Join(dir, "tagged"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Syntax) != 1 {
		t.Fatalf("parsed %d files, want 1 (build-tagged files must be excluded)", len(pkg.Syntax))
	}
	obj := pkg.Types.Scope().Lookup("Mode")
	if obj == nil {
		t.Fatal("tagged.Mode not found")
	}
	if got := obj.(*types.Const).Val().ExactString(); got != `"portable"` {
		t.Errorf("Mode = %s, want \"portable\"", got)
	}
}

// TestLoadExcludesTestFiles proves _test.go files — both in-package and
// external-test-package ones — never enter the program: an external
// package ("pkg_test") in the same directory would otherwise be a parse-
// level package clash.
func TestLoadExcludesTestFiles(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"pkg/code.go":          "package pkg\n\nfunc Real() int { return 1 }\n",
		"pkg/code_test.go":     "package pkg\n\nfunc helper() int { return Real() }\n",
		"pkg/external_test.go": "package pkg_test\n\nimport \"fixmod/pkg\"\n\nvar _ = pkg.Real\n",
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadTarget("fixmod/pkg", filepath.Join(dir, "pkg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Syntax) != 1 {
		t.Fatalf("parsed %d files, want 1 (test files must be excluded)", len(pkg.Syntax))
	}
	if pkg.Types.Scope().Lookup("helper") != nil {
		t.Error("in-package test declaration leaked into the program")
	}
}

// TestLoadDedup proves a package reached both as a named target and as a
// dependency of another target is checked exactly once: same *Package,
// same *types.Package, and cross-package object identity through the
// shared types.Info.
func TestLoadDedup(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"a/a.go": "package a\n\nfunc Shared() int { return 42 }\n",
		"b/b.go": "package b\n\nimport \"fixmod/a\"\n\nfunc Use() int { return a.Shared() }\n",
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Load b first so a is pulled in as a dependency…
	bPkg, err := l.LoadTarget("fixmod/b", filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	// …then name a directly.
	aPkg, err := l.LoadTarget("fixmod/a", filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	aAgain, err := l.LoadTarget("fixmod/a", filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if aPkg != aAgain {
		t.Error("loading the same target twice produced distinct *Package values")
	}
	imported := bPkg.Types.Imports()
	if len(imported) != 1 || imported[0] != aPkg.Types {
		t.Error("b's imported a is not the same *types.Package as the directly loaded a")
	}
	// Object identity across packages: the a.Shared the type checker
	// resolved inside b's body is a's own Defs object.
	sharedDef := aPkg.Types.Scope().Lookup("Shared")
	found := false
	for _, obj := range l.Info().Uses {
		if obj == sharedDef {
			found = true
			break
		}
	}
	if !found {
		t.Error("a.Shared use inside b does not alias a's definition object (shared Info broken)")
	}
	if got := l.FullPackages(); len(got) != 2 {
		t.Errorf("FullPackages = %d packages, want 2", len(got))
	}
}
