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
	"runtime"
	"sort"
	"strings"
)

// Pkg is one type-checked package under analysis: the parsed non-test
// sources plus the go/types facts the analyzers consult.
type Pkg struct {
	// Path is the package's import path (or a synthetic path for
	// fixture packages loaded from a bare directory).
	Path string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Info carries the type-checker's expression and object facts.
	Info *types.Info
	// Types is the checked package.
	Types *types.Package
}

// Loader parses and type-checks packages from source with no external
// dependencies: stdlib packages resolve from GOROOT/src (cgo disabled,
// so cgo-using packages like net fall back to their pure-Go variants),
// module packages resolve from the module root. It satisfies
// types.Importer, caching every package it checks.
type Loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	modRoot string
	modPath string
	pkgs    map[string]*types.Package
	// retained caches the full analysis view of module packages so a
	// path is checked exactly once whether it is reached by Load or as
	// a dependency: two checks of one path would mint two distinct
	// *types.Package identities and break cross-package assignability.
	retained map[string]*Pkg
	loading  map[string]bool
}

// NewLoader returns a loader for the module rooted at modRoot (the
// directory containing go.mod) whose module path is modPath.
func NewLoader(modRoot, modPath string) *Loader {
	ctxt := build.Default
	// Pure-Go builds only: with cgo off, go/build drops `import "C"`
	// files and picks the portable implementations, which is all the
	// type checker needs.
	ctxt.CgoEnabled = false
	return &Loader{
		fset:     token.NewFileSet(),
		ctxt:     ctxt,
		modRoot:  modRoot,
		modPath:  modPath,
		pkgs:     make(map[string]*types.Package),
		retained: make(map[string]*Pkg),
		loading:  make(map[string]bool),
	}
}

// Fset returns the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// resolveDir maps an import path to the directory holding its sources.
func (l *Loader) resolveDir(path string) (string, error) {
	if path == l.modPath {
		return l.modRoot, nil
	}
	if sub, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(sub)), nil
	}
	goroot := runtime.GOROOT()
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q (not stdlib, not under module %s)", path, l.modPath)
}

// Import implements types.Importer by type-checking the package from
// source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	// Module packages keep their syntax and type facts so a later
	// Load of the same path reuses this check instead of re-minting
	// the package.
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	pkg, _, _, err := l.check(path, dir, nil)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// check parses the build-selected non-test files of dir and
// type-checks them. When info is non-nil the checker fills it.
func (l *Loader) check(path, dir string, info *types.Info) (*types.Package, []*ast.File, *token.FileSet, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	cfg := types.Config{Importer: l, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return pkg, files, l.fset, nil
}

// newInfo returns a types.Info recording everything the analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// Load loads the package named by its import path, resolving the
// directory the same way Import does, while retaining syntax and type
// facts for analysis.
func (l *Loader) Load(path string) (*Pkg, error) {
	if pkg, ok := l.retained[path]; ok {
		return pkg, nil
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	return l.loadDir(path, dir)
}

func (l *Loader) loadDir(path, dir string) (*Pkg, error) {
	info := newInfo()
	tpkg, files, fset, err := l.check(path, dir, info)
	if err != nil {
		return nil, err
	}
	pkg := &Pkg{Path: path, Fset: fset, Files: files, Info: info, Types: tpkg}
	l.pkgs[path] = tpkg
	l.retained[path] = pkg
	return pkg, nil
}

// ModulePackages walks the module rooted at modRoot and returns the
// import paths (sorted) of every package holding non-test Go files,
// skipping testdata, hidden directories, and vendored trees.
func ModulePackages(modRoot, modPath string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") &&
				!strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
				rel, err := filepath.Rel(modRoot, p)
				if err != nil {
					return err
				}
				if rel == "." {
					out = append(out, modPath)
				} else {
					out = append(out, modPath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// FindModuleRoot walks upward from dir to the directory containing
// go.mod and returns it together with the declared module path.
func FindModuleRoot(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}
