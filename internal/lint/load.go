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
	"os"
	"os/exec"
	"path/filepath"
)

// The loader resolves package patterns with `go list -deps -export`,
// which compiles (or reuses from the build cache) gc export data for
// every dependency, then type-checks each matched package from source
// against that export data. This is the same shape as go/packages'
// LoadTypes mode, built directly on the go tool so the linter has no
// dependency outside the standard library.

type listedPkg struct {
	ImportPath      string
	Dir             string
	Export          string
	GoFiles         []string
	CompiledGoFiles []string
	DepOnly         bool
	Standard        bool
	Incomplete      bool
	Error           *struct{ Err string }
}

// Load lists the patterns and type-checks every matched (non-dependency)
// package.
func Load(patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,CompiledGoFiles,DepOnly,Standard,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, errb.String())
	}

	exports := map[string]string{}
	var targets []*listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 && len(t.CompiledGoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	borrowed := map[string][]BorrowDirective{}
	for _, p := range pkgs {
		if dirs := BorrowDirectives(p.Files); len(dirs) > 0 {
			borrowed[p.Pkg.Path()] = dirs
		}
	}
	for _, p := range pkgs {
		p.Borrowed = borrowed
	}
	return pkgs, nil
}

// typecheck parses and type-checks one package from source, resolving
// imports through the export-data map.
func typecheck(meta *listedPkg, exports map[string]string) (*Package, error) {
	files := meta.CompiledGoFiles
	if len(files) == 0 {
		files = meta.GoFiles
	}
	var paths []string
	for _, f := range files {
		if !filepath.IsAbs(f) {
			f = filepath.Join(meta.Dir, f)
		}
		paths = append(paths, f)
	}
	return TypecheckFiles(meta.ImportPath, paths, exports)
}

// TypecheckFiles parses and type-checks one package built from the given
// source files, resolving imports via the importPath→export-data map.
// It is the core the loader, the vettool mode, and the analyzer tests
// all share.
func TypecheckFiles(importPath string, filenames []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", importPath, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// ExportsFor runs `go list -deps -export` for the given packages and
// returns the importPath→export-file map (used by the test harness and
// the vettool mode to resolve fixture imports).
func ExportsFor(pkgs ...string) (map[string]string, error) {
	args := append([]string{
		"list", "-deps", "-export", "-json=ImportPath,Export",
	}, pkgs...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, errb.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(&out)
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
