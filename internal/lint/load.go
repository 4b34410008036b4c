package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory holding the package's files.
	Dir string
	// Fset maps positions for every file in the load.
	Fset *token.FileSet
	// Files are the parsed files, comments retained.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the checker's object/expression tables.
	Info *types.Info
	// TypeErrors collects type-check problems. Analyzers still run on
	// partially-typed packages, but drivers surface these separately.
	TypeErrors []error
}

// newInfo allocates the types.Info tables the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir         string
	ImportPath  string
	Name        string
	GoFiles     []string
	TestGoFiles []string
}

// LoadOptions tunes a Load.
type LoadOptions struct {
	// Dir is the working directory for `go list` (package patterns are
	// resolved relative to it). Empty means the current directory.
	Dir string
	// Tests includes in-package _test.go files in the type-check and
	// the analysis. External (_test package) files are never loaded.
	Tests bool
}

// Load resolves the patterns with `go list` and type-checks each
// matched package from source using only the standard library's
// importer — the tree this suite lints must stay buildable without
// network access, and so must the suite itself. Dependencies are
// resolved recursively from source and cached across packages, so a
// whole-module load pays the standard-library type-check once.
func Load(opts LoadOptions, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = opts.Dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, errBuf.String())
	}

	var listed []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		files := lp.GoFiles
		if opts.Tests {
			files = append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
		}
		if len(files) == 0 {
			continue
		}
		pkg, err := checkFiles(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkFiles parses and type-checks one package's files (named
// relative to dir).
func checkFiles(fset *token.FileSet, imp types.Importer, importPath, dir string, names []string) (*Package, error) {
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: fset, Files: files, Info: newInfo()}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// A partially-typed package still analyzes; Check's error is
	// already collected through conf.Error.
	pkg.Types, _ = conf.Check(importPath, fset, files, pkg.Info)
	return pkg, nil
}
