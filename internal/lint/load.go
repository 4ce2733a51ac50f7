package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package: the unit every
// analyzer operates on.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions every file in the load.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the expression types, uses/defs and selections the
	// analyzers resolve against.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Name       string
	Error      *listedError
}

// listedError is go list's own diagnostic for a package it could not
// resolve (missing directory, no Go files).
type listedError struct {
	Pos string
	Err string
}

// LoadError reports load failures — parse errors, type-check errors, and
// unresolvable patterns — as positioned diagnostics so a CI log points at
// the offending line instead of printing one opaque string.
type LoadError struct {
	// Diags are "file:line:col: message" strings in source order.
	Diags []string
}

func (e *LoadError) Error() string {
	switch len(e.Diags) {
	case 0:
		return "lint: load failed"
	case 1:
		return "lint: " + e.Diags[0]
	}
	return fmt.Sprintf("lint: %d load errors:\n  %s", len(e.Diags), strings.Join(e.Diags, "\n  "))
}

// Load resolves the patterns with the go tool and returns the matched
// packages parsed and type-checked. Dependencies — including the standard
// library — are imported from compiler export data produced by `go list
// -export`, so only the matched packages themselves are parsed; the loader
// needs nothing beyond the standard library and an installed go toolchain.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	var roots []*listedPackage
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			roots = append(roots, lp)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})

	var diags []string
	pkgs := make([]*Package, 0, len(roots))
	for _, lp := range roots {
		if lp.Error != nil && len(lp.GoFiles) == 0 {
			// Nothing to parse: surface go list's own diagnostic. (A root
			// with Go files proceeds to the parser and type-checker, whose
			// positions beat go list's summary.)
			diags = append(diags, listDiag(lp))
			continue
		}
		pkg, checkDiags := check(fset, imp, lp)
		if len(checkDiags) > 0 {
			diags = append(diags, checkDiags...)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	if len(diags) > 0 {
		return nil, &LoadError{Diags: diags}
	}
	return pkgs, nil
}

// listDiag formats a go list package error, keeping its position prefix
// when one exists.
func listDiag(lp *listedPackage) string {
	msg := strings.TrimSpace(lp.Error.Err)
	if lp.Error.Pos != "" {
		return lp.Error.Pos + ": " + msg
	}
	return lp.ImportPath + ": " + msg
}

// goList shells out to `go list -e -deps -export -json`, which both
// enumerates the package graph and materializes export data for every
// dependency in the build cache. -e keeps broken root packages in the
// output so their files reach our parser and type-checker, which produce
// positioned diagnostics.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Name,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// check parses and type-checks one listed package. On failure it returns
// the positioned diagnostics instead of a package.
func check(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, []string) {
	var diags []string
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if el, ok := err.(scanner.ErrorList); ok {
				for _, e := range el {
					diags = append(diags, fmt.Sprintf("%s: %s", e.Pos, e.Msg))
				}
			} else {
				diags = append(diags, fmt.Sprintf("parsing %s: %v", name, err))
			}
			continue
		}
		files = append(files, f)
	}
	if len(diags) > 0 {
		return nil, diags
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp, Error: func(err error) {
		if te, ok := err.(types.Error); ok {
			diags = append(diags, fmt.Sprintf("%s: %s", te.Fset.Position(te.Pos), te.Msg))
			return
		}
		diags = append(diags, err.Error())
	}}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil && len(diags) == 0 {
		diags = append(diags, fmt.Sprintf("type-checking %s: %v", lp.ImportPath, err))
	}
	if len(diags) > 0 {
		return nil, diags
	}
	return &Package{
		Path:  lp.ImportPath,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
