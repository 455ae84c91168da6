// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that SPARTAN's domain analyzers
// need. The repository is deliberately zero-dependency (see go.mod), so
// instead of importing x/tools this package provides the same shape —
// an Analyzer with a Run function over a type-checked Pass — plus the
// two drivers the repo uses:
//
//   - analyzertest runs an analyzer over golden files in testdata/src and
//     checks diagnostics against `// want "regexp"` comments;
//   - unitchecker loads packages, test files included, through
//     `go list` and runs the whole suite as `spartanvet ./...` (the
//     `make lint` entry point).
//
// The analyzers themselves encode SPARTAN invariants the compiler cannot
// see: tolerance comparisons must not use raw float equality (floatcmp),
// pipeline spans must be finished (spanfinish), archive writes must not
// swallow errors (errcheckio), pipeline functions take a context first
// (ctxfirst), and per-row loops hold no defer (deferloop). Metric names
// and label sets are checked at run time by obs.Registry itself, and its
// lock release on a panic by an obs test.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer minus requires and facts:
// every analyzer reasons about one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string
	// Doc is the help text: one summary line, a blank line, then detail.
	Doc string
	// Run executes the check on one package and reports findings via
	// pass.Reportf. A non-nil error fails the whole lint run — reserve it
	// for internal failures, not findings.
	Run func(pass *Pass) error
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// NewPass assembles a pass; report receives every diagnostic. Drivers
// construct one pass per (package, analyzer) pair.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		report:    report,
	}
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// PackageBase reports whether the pass's package import path has one of
// the given final path elements (e.g. "cart" matches both the real
// "repro/internal/cart" and an analyzer-test fixture package "cart").
// Scoped analyzers use it to restrict themselves to the packages whose
// invariants they encode.
func (p *Pass) PackageBase(names ...string) bool {
	path := p.Pkg.Path()
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	for _, n := range names {
		if base == n {
			return true
		}
	}
	return false
}
