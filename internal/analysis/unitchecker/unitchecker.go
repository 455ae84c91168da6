// Package unitchecker is the driver behind cmd/spartanvet. It resolves
// package patterns through `go list -json -deps -export -test`, which
// compiles what it must and hands back export data for every package,
// type-checks each matched package from source against that export
// data, runs the analyzers over it, and prints each finding as a
// "file:line:col: message [name]" line on stderr, exiting 2 if there
// is any.
//
// Test files are covered through the test variants `go list -test`
// reports. A package with in-package tests is analyzed as "p [p.test]"
// (its sources plus its _test.go files) in place of p; an external
// test package "p_test [p.test]" is analyzed on its own; the generated
// "p.test" main is skipped. Each variant is type-checked under its
// plain import path, so analyzer scopes are the ones the plain package
// has.
package unitchecker

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
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Run is the entry point for the spartanvet main: it interprets args
// (typically os.Args[1:]), which are package patterns and nothing else,
// and never returns.
func Run(progname string, args []string, analyzers []*analysis.Analyzer) {
	os.Exit(run(progname, args, analyzers, os.Stderr))
}

func run(progname string, patterns []string, analyzers []*analysis.Analyzer, stderr io.Writer) int {
	for _, arg := range patterns {
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintf(stderr, "%s: unrecognized flag %s\n", progname, arg)
			return 2
		}
	}
	if len(patterns) == 0 {
		fmt.Fprintf(stderr, "usage: %s packages...\n", progname)
		return 1
	}
	diags, ok := analyze(progname, patterns, analyzers, stderr)
	if !ok {
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// listPackage is the subset of `go list -json` output the driver
// consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// plainPath strips the " [p.test]" suffix go list gives test variants.
func (p *listPackage) plainPath() string {
	path, _, _ := strings.Cut(p.ImportPath, " ")
	return path
}

// analyze checks every package matched by patterns and returns the
// diagnostics of all of them; ok is false when a package failed to
// load or type-check. Dependencies outside the patterns only supply
// export data; a package with an in-package test variant is analyzed
// through that variant alone.
func analyze(progname string, patterns []string, analyzers []*analysis.Analyzer, stderr io.Writer) (diags []Diag, ok bool) {
	pkgs, exports, err := loadPackages(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return nil, false
	}
	hasTestVariant := map[string]bool{}
	for _, p := range pkgs {
		if p.ForTest != "" && p.plainPath() == p.ForTest {
			hasTestVariant[p.ForTest] = true
		}
	}

	cwd, _ := os.Getwd()
	ok = true
	for _, p := range pkgs {
		switch plain := p.plainPath(); {
		case p.DepOnly:
			continue
		case p.ForTest == "" && p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test"):
			continue // generated test main
		case p.ForTest == "" && hasTestVariant[plain]:
			continue // analyzed through its test variant
		case p.ForTest != "" && plain != p.ForTest && plain != p.ForTest+"_test":
			continue // a dependency recompiled for some package's tests
		}
		d, err := checkPackage(p, exports, cwd, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %s: %v\n", progname, p.ImportPath, err)
			ok = false
			continue
		}
		diags = append(diags, d...)
	}
	return diags, ok
}

// loadPackages shells out to the go command for pattern expansion,
// test variants and export data, returning every non-standard package
// with Go files in the dependency closure — dependencies before
// importers, matched packages flagged by DepOnly=false — plus an
// import-path → export-file map covering the whole closure.
func loadPackages(patterns []string) (pkgs []*listPackage, exports map[string]string, err error) {
	args := append([]string{"list", "-json", "-deps", "-export", "-test"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := bytes.TrimSpace(stderr.Bytes())
		if len(msg) > 0 {
			return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, msg)
		}
		return nil, nil, fmt.Errorf("go list %v: %v", patterns, err)
	}

	exports = map[string]string{}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		p := new(listPackage)
		if err := dec.Decode(p); err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, exports, nil
}

// Diag is one rendered diagnostic.
type Diag struct {
	Position token.Position
	Message  string
	Analyzer string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// checkPackage parses and type-checks p under its plain import path,
// resolving imports through p.ImportMap to the export data in exports,
// and runs the analyzers. File names in the diagnostics are made
// relative to cwd.
func checkPackage(p *listPackage, exports map[string]string, cwd string, analyzers []*analysis.Analyzer) ([]Diag, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	base := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tcfg := &types.Config{
		Importer: mappedImporter{m: p.ImportMap, next: base},
		Sizes:    types.SizesFor("gc", buildArch()),
	}
	pkg, err := tcfg.Check(p.plainPath(), fset, files, info)
	if err != nil {
		return nil, err
	}

	var diags []Diag
	for _, a := range analyzers {
		pass := analysis.NewPass(a, fset, files, pkg, info, func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			pos.Filename = relativeTo(pos.Filename, cwd)
			diags = append(diags, Diag{Position: pos, Message: d.Message, Analyzer: d.Analyzer})
		})
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// relativeTo shortens absolute file names to be relative to the working
// directory the tool runs in.
func relativeTo(filename, dir string) string {
	if dir == "" {
		return filename
	}
	if rel, err := filepath.Rel(dir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}

func buildArch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// mappedImporter resolves source-level import paths through the
// package's ImportMap (vendoring, test variants) before loading export
// data.
type mappedImporter struct {
	m    map[string]string
	next types.Importer
}

func (mi mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.next.Import(path)
}
