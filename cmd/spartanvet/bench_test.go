package main

// Self-benchmark for the analyzer suite: every registered analyzer runs
// over a fixed fixture corpus so `go test -bench=. ./cmd/spartanvet`
// attributes analysis cost per analyzer. The corpus is a subset of the
// golden fixtures — archive writes, tolerance checks, span discipline,
// loop bodies — so each analyzer meets code it inspects, not only
// packages it skips. Record a baseline before growing the suite and
// compare with benchstat or `-benchtime=10x` eyeballing; a new analyzer
// that doubles the total shows up here long before it shows up as a slow
// `make lint`.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// benchCorpus names fixture packages under
// internal/analysis/testdata/src. They type-check against the standard
// library alone, so the whole corpus loads with the source importer and
// no build artifacts. CI runs one iteration, so a name whose directory
// is gone fails there.
var benchCorpus = []string{
	"codec",
	"cart",
	"pipeline",
	"deferloop",
}

type benchPkg struct {
	name  string
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func loadBenchCorpus(b *testing.B) []*benchPkg {
	b.Helper()
	var out []*benchPkg
	for _, name := range benchCorpus {
		dir := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", name)
		fset := token.NewFileSet()
		entries, err := os.ReadDir(dir)
		if err != nil {
			b.Fatalf("reading corpus dir: %v", err)
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				b.Fatalf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
		pkgName := files[0].Name.Name
		pkg, err := cfg.Check(pkgName, fset, files, info)
		if err != nil {
			b.Fatalf("type-checking %s: %v", name, err)
		}
		out = append(out, &benchPkg{
			name:  name,
			fset:  fset,
			files: files,
			pkg:   pkg,
			info:  info,
		})
	}
	return out
}

// BenchmarkAnalyzers runs each analyzer over the whole corpus per
// iteration, so an op measures one package-local pass, the unit
// `make lint` pays once per package.
func BenchmarkAnalyzers(b *testing.B) {
	corpus := loadBenchCorpus(b)
	var reported int
	for _, a := range analyzers {
		b.Run(a.Name, func(b *testing.B) {
			for b.Loop() {
				for _, p := range corpus {
					pass := analysis.NewPass(a, p.fset, p.files, p.pkg, p.info,
						func(analysis.Diagnostic) { reported++ })
					if err := a.Run(pass); err != nil {
						b.Fatalf("%s on %s: %v", a.Name, p.name, err)
					}
				}
			}
		})
	}
	if reported < 0 { // keep the diagnostic sink live
		b.Fatal("unreachable")
	}
}

// BenchmarkSuite is the whole-suite number: all analyzers, whole
// corpus, one op — the figure to watch across releases.
func BenchmarkSuite(b *testing.B) {
	corpus := loadBenchCorpus(b)
	var reported int
	for b.Loop() {
		for _, a := range analyzers {
			for _, p := range corpus {
				pass := analysis.NewPass(a, p.fset, p.files, p.pkg, p.info,
					func(analysis.Diagnostic) { reported++ })
				if err := a.Run(pass); err != nil {
					b.Fatalf("%s on %s: %v", a.Name, p.name, err)
				}
			}
		}
	}
	if reported < 0 {
		b.Fatal("unreachable")
	}
}
