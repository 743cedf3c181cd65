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

// Package is one loaded, parsed, and type-checked target package.
type Package struct {
	Path      string
	Name      string
	Dir       string
	GoFiles   []string
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the slice of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns (relative to dir) with the go tool, then
// parses and type-checks each matched package from source. Imports are
// satisfied from the compiler export data `go list -export` produces,
// so loading works offline and never re-type-checks dependencies —
// the same strategy x/tools' unitchecker uses under `go vet`.
//
// Only non-test GoFiles are loaded: the invariant egdlint enforces
// protects the simulation's trajectories, and tests measure wall-clock
// time and iterate maps on purpose.
func Load(dir string, patterns []string) (*token.FileSet, []*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, nil, fmt.Errorf("lint: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range targets {
		if p.Name == "main" && len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheck(fset, imp, p)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return fset, pkgs, nil
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var listed []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		listed = append(listed, &p)
	}
	return listed, nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, p *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{
		Path:      p.ImportPath,
		Name:      p.Name,
		Dir:       p.Dir,
		GoFiles:   p.GoFiles,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
