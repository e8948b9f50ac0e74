package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"sort"
	"strings"
)

// Program is a loaded, type-checked view of one Go module — the unit
// tixlint analyzes. Loading shells out to `go list -export` so the
// toolchain resolves imports and produces export data, then parses and
// type-checks the module's own packages with go/parser + go/types. No
// dependencies beyond the standard library and the go command.
type Program struct {
	Fset      *token.FileSet
	Pkgs      []*Package
	ModuleDir string
	// LoadErrors collects go list, parse, and type-check problems.
	// Analyzers still run over whatever loaded, but a non-empty list
	// means results may be incomplete and tixlint exits 2.
	LoadErrors []string
}

// Package is one type-checked package (possibly a test variant, which
// includes the package's _test.go files).
type Package struct {
	ImportPath string // raw go list path, e.g. "repro/internal/shard [repro/internal/shard.test]"
	PkgPath    string // cleaned import path without the test-variant suffix
	Name       string
	Files      []*ast.File
	Info       *types.Info
}

// Segment returns the last import-path element with any "_test" external
// test suffix stripped — the name analyzers use for package-set matching
// ("synth", "shard", "bench", "index", ...), so the rules apply equally
// to the real module and to lint's fixture module.
func (p *Package) Segment() string {
	return strings.TrimSuffix(lastSegment(p.PkgPath), "_test")
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Standard   bool
	ForTest    string
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// cleanImportPath strips the " [pkg.test]" variant suffix go list appends
// to test-augmented packages.
func cleanImportPath(p string) string {
	if i := strings.IndexByte(p, ' '); i >= 0 {
		return p[:i]
	}
	return p
}

// Load lists, parses, and type-checks the module rooted at (or containing)
// dir, restricted to patterns (typically "./..."). Test files are included
// via go list's test variants: the augmented "p [p.test]" package replaces
// the plain "p", and external "p_test" packages load separately. Other
// packages recompiled for p's test ("q [p.test]") are skipped, so every
// source file is analyzed exactly once.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,Export,ImportMap,Standard,ForTest,Module,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}

	prog := &Program{Fset: token.NewFileSet(), ModuleDir: dir}
	meta := map[string]*listPkg{}
	var order []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPkg)
		if derr := dec.Decode(lp); errors.Is(derr, io.EOF) {
			break
		} else if derr != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", derr)
		}
		meta[lp.ImportPath] = lp
		order = append(order, lp)
	}

	// The test-augmented variant supersedes the plain package: same
	// non-test files plus the in-package tests, so analyzing both would
	// duplicate every diagnostic.
	augmented := map[string]bool{}
	for _, lp := range order {
		if lp.ForTest != "" && cleanImportPath(lp.ImportPath) == lp.ForTest {
			augmented[lp.ForTest] = true
		}
	}

	for _, lp := range order {
		clean := cleanImportPath(lp.ImportPath)
		switch {
		case lp.Module == nil || lp.Standard:
			continue // dependency outside the module
		case strings.HasSuffix(clean, ".test"):
			continue // synthesized test main
		case lp.ForTest == "" && augmented[clean]:
			continue // plain package shadowed by its test variant
		case lp.ForTest != "" && clean != lp.ForTest && clean != lp.ForTest+"_test":
			continue // dependency recompiled for another package's test
		}
		if lp.Error != nil {
			prog.LoadErrors = append(prog.LoadErrors, fmt.Sprintf("%s: %s", clean, lp.Error.Err))
		}
		if prog.ModuleDir == dir && lp.Module.Dir != "" {
			prog.ModuleDir = lp.Module.Dir
		}
		pkg, perr := typeCheck(prog, lp, meta)
		if perr != nil {
			prog.LoadErrors = append(prog.LoadErrors, fmt.Sprintf("%s: %v", clean, perr))
		}
		if pkg != nil {
			prog.Pkgs = append(prog.Pkgs, pkg)
		}
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].ImportPath < prog.Pkgs[j].ImportPath })
	return prog, nil
}

// typeCheck parses lp's files and type-checks them against export data
// for every import, resolved through lp.ImportMap so test variants see
// their augmented dependencies.
func typeCheck(prog *Program, lp *listPkg, meta map[string]*listPkg) (*Package, error) {
	var files []*ast.File
	for _, f := range lp.GoFiles {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, f)
		}
		af, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	if len(files) == 0 {
		return nil, nil
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := lp.ImportMap[path]; ok {
			path = mapped
		}
		dep, ok := meta[path]
		if !ok || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(dep.Export)
	}
	var typeErrs []string
	conf := types.Config{
		Importer: importer.ForCompiler(prog.Fset, "gc", lookup),
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	clean := cleanImportPath(lp.ImportPath)
	// Type errors arrive through conf.Error; analyzers read only info.
	_, _ = conf.Check(clean, prog.Fset, files, info)
	pkg := &Package{
		ImportPath: lp.ImportPath,
		PkgPath:    clean,
		Name:       lp.Name,
		Files:      files,
		Info:       info,
	}
	if len(typeErrs) > 0 {
		return pkg, fmt.Errorf("type errors: %s", strings.Join(typeErrs, "; "))
	}
	return pkg, nil
}
