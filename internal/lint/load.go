package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package plus its parsed test files.
// Test files are parsed (so syntactic checks can cover them) but excluded
// from type checking: external test packages would otherwise drag in a
// second type-check universe for no analysis benefit.
type Package struct {
	Path      string // import path, e.g. scalegnn/internal/tensor
	Dir       string
	Files     []*ast.File // non-test files, type-checked
	TestFiles []*ast.File // _test.go files, syntax only
	Types     *types.Package
	Info      *types.Info
}

// AllFiles returns the package's non-test files followed by its test files.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	return append(out, p.TestFiles...)
}

// Loader parses and type-checks packages of a single module without any
// dependency on golang.org/x/tools: module-internal imports are resolved
// from source directories under the module root, and standard-library
// imports go through the stdlib source importer.
type Loader struct {
	ModDir  string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	Fset *token.FileSet

	std      types.Importer
	pkgs     map[string]*Package // memoized by import path
	buildCtx build.Context
}

// NewLoader locates the enclosing module of dir and returns a loader for it.
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
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		modDir = parent
	}
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", modDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModDir:   modDir,
		ModPath:  modPath,
		Fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		buildCtx: build.Default,
	}, nil
}

// dirForPath maps an import path inside the module to its directory.
func (l *Loader) dirForPath(path string) (string, bool) {
	if path == l.ModPath {
		return l.ModDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// pathForDir maps a directory under the module root to its import path.
func (l *Loader) pathForDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModDir, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModDir)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer so type-checking one repo package can
// pull in other repo packages (and the stdlib) on demand.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirForPath(path); ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir loads (and memoizes) the package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.pathForDir(dir)
	if err != nil {
		return nil, err
	}
	abs, _ := filepath.Abs(dir)
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var srcNames, testNames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Honor build constraints the way the go tool does: a file excluded
		// under the active tag set (e.g. //go:build nofault alternates)
		// must not be parsed into the same package as its enabled twin, or
		// type checking sees every symbol declared twice.
		if match, err := l.buildCtx.MatchFile(dir, name); err != nil || !match {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			testNames = append(testNames, name)
		} else {
			srcNames = append(srcNames, name)
		}
	}
	sort.Strings(srcNames)
	sort.Strings(testNames)
	if len(srcNames) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	p := &Package{Path: path, Dir: dir}
	for _, name := range srcNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	for _, name := range testNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		// External test packages (package foo_test) would need their own
		// type-check pass; syntactic checks handle both kinds the same way.
		p.TestFiles = append(p.TestFiles, f)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.Fset, p.Files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p.Types = tpkg
	l.pkgs[path] = p
	return p, nil
}

// ExpandPatterns resolves package patterns ("./...", "dir/...", plain
// directories) into the list of package directories under the module,
// skipping testdata, vendor, and hidden directories — the same set the go
// tool would build.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = l.ModDir
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
