package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package plus its suppression
// markers. A directory yields one primary Package (library files plus
// in-package _test.go files) and, when present, a second Package for
// the external foo_test package (Path suffixed "_test").
type Package struct {
	// Dir is the package directory; Path its import path.
	Dir  string
	Path string

	Fset      *token.FileSet
	Files     []*ast.File
	TestFiles map[*ast.File]bool
	Types     *types.Package
	Info      *types.Info
	Markers   []*Marker

	// facts accumulates what this package's analyzers export; depFacts
	// holds the already-computed facts of dependency packages (see
	// facts.go).
	facts    *PackageFacts
	depFacts map[string]*PackageFacts
}

// A Loader parses and type-checks packages of this module from source.
// The zero value is not usable; construct with NewLoader. One Loader
// shares a FileSet and a source importer (which caches transitively
// type-checked dependencies) across every LoadDir call.
type Loader struct {
	fset *token.FileSet
	imp  types.ImporterFrom
}

// NewLoader returns a Loader backed by the standard library's source
// importer. The importer resolves module-internal import paths through
// the go command, so the process's working directory must be inside the
// module.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadDir parses and type-checks the package in dir under import path
// pkgPath. includeTests folds _test.go files in: in-package test files
// join the primary package, external (foo_test) files form a second
// returned package with path pkgPath+"_test".
func (l *Loader) LoadDir(dir, pkgPath string, includeTests bool) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	// Parse, splitting files by declared package name: the directory's
	// base package (with any in-package tests) vs. the external _test
	// package.
	var primary, external []*ast.File
	tests := map[*ast.File]bool{}
	baseName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkgName := f.Name.Name
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest {
			tests[f] = true
		}
		switch {
		case strings.HasSuffix(pkgName, "_test"):
			external = append(external, f)
		default:
			if baseName == "" {
				baseName = pkgName
			} else if pkgName != baseName {
				return nil, fmt.Errorf("%s: mixed package names %s and %s", dir, baseName, pkgName)
			}
			primary = append(primary, f)
		}
	}

	var out []*Package
	imp := l.imp
	if len(primary) > 0 {
		pkg, err := l.check(l.imp, dir, pkgPath, primary, tests)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		if slices.ContainsFunc(primary, func(f *ast.File) bool { return tests[f] }) {
			// As the go command builds it, the external test package
			// imports the package under test with its in-package test
			// files (export_test.go) folded in.
			imp = testVariant{l.imp, pkg.Types}
		}
	}
	if len(external) > 0 {
		pkg, err := l.check(imp, dir, pkgPath+"_test", external, tests)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// testVariant resolves the package under test to its test build and
// every other import through the shared importer.
type testVariant struct {
	types.ImporterFrom
	pkg *types.Package
}

func (v testVariant) Import(path string) (*types.Package, error) {
	return v.ImportFrom(path, "", 0)
}

func (v testVariant) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == v.pkg.Path() {
		return v.pkg, nil
	}
	return v.ImporterFrom.ImportFrom(path, dir, mode)
}

func (l *Loader) check(imp types.Importer, dir, pkgPath string, files []*ast.File, tests map[*ast.File]bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	return &Package{
		Dir:       dir,
		Path:      pkgPath,
		Fset:      l.fset,
		Files:     files,
		TestFiles: tests,
		Types:     tpkg,
		Info:      info,
		Markers:   collectMarkers(l.fset, files),
	}, nil
}

// PackageDirs walks root (a module root) and returns every directory
// holding .go files, as module-root-relative paths in lexical order.
// testdata, hidden, and vendor directories are skipped.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(fi.Name(), ".go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || d != dirs[i-1] {
			out = append(out, d)
		}
	}
	return out, nil
}

// ModulePath reads the module path from root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}
