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
// pipeline spans must be finished (spanfinish), registry locks must be
// balanced and panic-safe (lockbalance), archive writes must not swallow
// errors (errcheckio), pipeline functions take a context first
// (ctxfirst), and per-row loops hold no defer (deferloop). Metric names
// and label sets are checked at run time by obs.Registry itself.
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
	// Name identifies the analyzer in diagnostics and in
	// //spartanvet:ignore directives. It must be a valid Go identifier.
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

	report     func(Diagnostic)
	suppressed *Suppressions
}

// NewPass assembles a pass; report receives every non-suppressed
// diagnostic. Drivers construct one pass per (package, analyzer) pair.
// The pass indexes the package's suppression directives privately; a
// driver that runs several analyzers and wants to detect stale
// directives afterwards should use NewPassShared instead.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return NewPassShared(a, fset, files, pkg, info, report, IndexSuppressions(fset, files))
}

// NewPassShared is NewPass with a caller-owned suppression index, so one
// index can observe every analyzer that runs over the package and then
// report the directives none of them needed (Suppressions.Stale).
func NewPassShared(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic), sup *Suppressions) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		report:     report,
		suppressed: sup,
	}
}

// Reportf records a finding unless a //spartanvet:ignore directive for
// this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name}
	if dir := p.suppressed.covering(p.Fset, d.Pos, p.Analyzer.Name); dir != nil {
		dir.used = true
		return
	}
	p.report(d)
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

// IgnoreDirective is the comment prefix that suppresses a finding:
//
//	//spartanvet:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory — a bare directive suppresses nothing.
const IgnoreDirective = "//spartanvet:ignore"

// StaleIgnoreName is the pseudo-analyzer name carried by diagnostics
// about //spartanvet:ignore directives that suppressed nothing. A stale
// directive hides the next real finding on its line, so it fails lint
// like any other diagnostic. It cannot itself be suppressed.
const StaleIgnoreName = "staleignore"

// directive is one parsed //spartanvet:ignore comment.
type directive struct {
	pos      token.Pos
	analyzer string // analyzer name, or "all"
	used     bool
}

// Suppressions is the per-package index of ignore directives. It records
// which directives actually swallowed a diagnostic so drivers can report
// the stale remainder after every analyzer has run.
type Suppressions struct {
	directives []*directive
	// byLine maps file → line → directives covering that line.
	byLine map[string]map[int][]*directive
}

// IndexSuppressions parses every //spartanvet:ignore directive in files.
// A directive covers its own line (trailing-comment style) and the line
// directly below it (comment-above style).
func IndexSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	sup := &Suppressions{byLine: map[string]map[int][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // no reason given: directive is inert
				}
				dir := &directive{pos: c.Pos(), analyzer: fields[0]}
				sup.directives = append(sup.directives, dir)
				pos := fset.Position(c.Pos())
				byLine := sup.byLine[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*directive{}
					sup.byLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], dir)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], dir)
			}
		}
	}
	return sup
}

// covering returns the first directive that suppresses analyzer at pos,
// or nil.
func (s *Suppressions) covering(fset *token.FileSet, pos token.Pos, analyzer string) *directive {
	if s == nil || !pos.IsValid() {
		return nil
	}
	p := fset.Position(pos)
	for _, dir := range s.byLine[p.Filename][p.Line] {
		if dir.analyzer == analyzer || dir.analyzer == "all" {
			return dir
		}
	}
	return nil
}

// Stale reports the directives that suppressed nothing, as diagnostics
// under StaleIgnoreName. known holds the analyzer names that actually
// ran: a directive for an analyzer outside that set is not judged (the
// driver cannot know whether it would have fired). Call it only after
// every analyzer in known has run over the package. "all" directives
// are judged only when judgeAll is set: the spartanvet driver always
// runs the full suite and sets it; a harness running one analyzer
// cannot prove such a directive useless.
func (s *Suppressions) Stale(known map[string]bool, judgeAll bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.directives {
		if dir.used {
			continue
		}
		if dir.analyzer == "all" {
			if !judgeAll {
				continue
			}
		} else if !known[dir.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: StaleIgnoreName,
			Message: fmt.Sprintf("unused //spartanvet:ignore %s directive: the analyzer reports nothing on this line; delete the stale suppression",
				dir.analyzer),
		})
	}
	return out
}
