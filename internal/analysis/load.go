package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully loaded, type-checked target package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	// Info is the loader's SHARED types.Info: every fully loaded package
	// of one Loader records its resolutions into the same maps, so
	// cross-package analyzers (callgraph, allocfree) can follow a
	// types.Object from a call site in one package to its declaration in
	// another with plain map lookups and pointer identity.
	Info *types.Info
}

// Loader parses and type-checks packages from source with no tooling
// beyond the standard library. Imports resolve in order against
// ExtraRoots (GOPATH-style src trees, used by test fixtures), the
// enclosing module, then GOROOT/src (with the GOROOT vendor fallback).
//
// The whole module is checked as ONE program: module-local (and
// extra-root) packages are always fully type-checked — function bodies
// included — into a single shared types.Info, whether they are named as
// targets or merely imported by one, and each such package is checked
// exactly once no matter how many import paths reach it. Only GOROOT
// dependencies are checked shallowly (IgnoreFuncBodies), since the
// analyzers never traverse into the standard library.
type Loader struct {
	Fset *token.FileSet
	// ModulePath/ModuleDir anchor module-local import resolution
	// (e.g. "repro" → the repo root). Resolved by NewLoader.
	ModulePath string
	ModuleDir  string
	// ExtraRoots are GOPATH-style source roots searched before the module
	// and GOROOT; import path "a/b" resolves to <root>/a/b. Packages under
	// an extra root are fully loaded, like module packages, so fixture
	// programs exercise the same interprocedural machinery as the module.
	ExtraRoots []string

	goroot  string
	info    *types.Info               // shared across every full package check
	full    map[string]*Package       // fully loaded packages by import path
	cache   map[string]*types.Package // shallow (GOROOT) dependency cache
	loading map[string]bool
}

// NewLoader builds a Loader anchored at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		modDir = parent
	}
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", modDir)
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		ModuleDir:  modDir,
		goroot:     build.Default.GOROOT,
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		full:    map[string]*Package{},
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// Info exposes the shared types.Info all fully loaded packages write
// into (every Package.Info aliases it).
func (l *Loader) Info() *types.Info { return l.info }

// FullPackages returns every fully loaded package — named targets and
// the module/extra-root dependencies pulled in by their imports — sorted
// by import path. This is the package set a whole-program analyzer
// should see, since reachability may pass through packages nobody named
// on the command line.
func (l *Loader) FullPackages() []*Package {
	pkgs := make([]*Package, 0, len(l.full))
	for _, pkg := range l.full {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs
}

// resolveDir maps an import path to its source directory.
func (l *Loader) resolveDir(path string) (string, error) {
	for _, root := range l.ExtraRoots {
		d := filepath.Join(root, path)
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, nil
		}
	}
	if path == l.ModulePath {
		return l.ModuleDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), nil
	}
	for _, d := range []string{
		filepath.Join(l.goroot, "src", filepath.FromSlash(path)),
		filepath.Join(l.goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q", path)
}

// fullLoadable reports whether dir holds source the loader must check as
// part of the program (module-local or under an extra root) rather than
// as a shallow GOROOT dependency.
func (l *Loader) fullLoadable(dir string) bool {
	if dir == l.ModuleDir || strings.HasPrefix(dir, l.ModuleDir+string(filepath.Separator)) {
		return true
	}
	for _, root := range l.ExtraRoots {
		if dir == root || strings.HasPrefix(dir, root+string(filepath.Separator)) {
			return true
		}
	}
	return false
}

// parseDir parses the buildable Go files of dir (build-tag aware, tests
// excluded). Files inside the module are registered under module-root-
// relative names, so every diagnostic position is stable regardless of
// the invocation directory (and directly usable in CI annotations);
// GOROOT files keep their absolute paths.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append(append([]string{}, bp.GoFiles...), bp.CgoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		full := filepath.Join(dir, name)
		display := full
		if rel, err := filepath.Rel(l.ModuleDir, full); err == nil && !strings.HasPrefix(rel, "..") {
			display = filepath.ToSlash(rel)
		}
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, display, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer. Module-local and extra-root packages
// are fully loaded (so the importing package sees the SAME *types.Package
// the package's own analysis pass uses — object identity holds across
// package boundaries); GOROOT dependencies contribute their exported API
// only.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.full[path]; ok {
		return pkg.Types, nil
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	if l.fullLoadable(dir) {
		pkg, err := l.loadFull(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}

	l.loading[path] = true
	defer delete(l.loading, path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: parsing %s: %w", path, err)
	}
	cfg := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", build.Default.GOARCH),
		// Dependencies only contribute their exported API; tolerate
		// residual errors (e.g. build-tag corner cases in GOROOT) as long
		// as a package object comes back.
		Error: func(error) {},
	}
	pkg, err := cfg.Check(path, l.Fset, files, nil)
	if pkg == nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	l.cache[path] = pkg
	return pkg, nil
}

// loadFull parses and fully type-checks one program package — bodies and
// all — into the loader's shared types.Info, caching the result so a
// package reached both as a named target and as a dependency of another
// is checked exactly once.
func (l *Loader) loadFull(path, dir string) (*Package, error) {
	if pkg, ok := l.full[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: parsing %s: %w", path, err)
	}
	var errs []error
	cfg := types.Config{
		Importer:    l,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", build.Default.GOARCH),
		Error:       func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := cfg.Check(path, l.Fset, files, l.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, errs[0])
	}
	if tpkg == nil {
		return nil, fmt.Errorf("analysis: type-checking %s failed", path)
	}
	pkg := &Package{
		PkgPath: path,
		Dir:     dir,
		Fset:    l.Fset,
		Syntax:  files,
		Types:   tpkg,
		Info:    l.info,
	}
	l.full[path] = pkg
	return pkg, nil
}

// LoadTarget fully type-checks the package in dir under the given import
// path, with function bodies and types.Info populated. Loading the same
// import path again returns the cached package.
func (l *Loader) LoadTarget(path, dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadFull(path, abs)
}

// Load expands patterns ("./...", "./dir", "dir") into module packages
// and fully loads each. Vendor, testdata, .git, and hidden directories
// are skipped during ... expansion, as are directories without buildable
// Go files.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadFull(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// expand turns CLI patterns into a sorted, deduplicated directory list.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if seen[abs] {
			return nil
		}
		if !l.buildable(abs) {
			return nil
		}
		seen[abs] = true
		dirs = append(dirs, abs)
		return nil
	}
	for _, pat := range patterns {
		root, rec := strings.CutSuffix(pat, "/...")
		if root == "." || root == "" {
			root = l.ModuleDir
		}
		if !rec {
			if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
				return nil, fmt.Errorf("analysis: package pattern %q: no such directory", pat)
			}
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// buildable reports whether dir holds at least one buildable Go file.
func (l *Loader) buildable(dir string) bool {
	bp, err := build.Default.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles)+len(bp.CgoFiles) > 0
}
