// Package deferloop flags defer statements inside a for or range body
// in internal/fascicle, internal/cart and internal/codec — the packages
// whose loops iterate per row or per fascicle. A defer runs at function
// return, not at the end of the iteration that created it, so a per-row
// `defer f.Close()` accumulates a million open resources before the
// first one is released. The fix is to hoist the defer out of the loop
// or wrap the iteration body in a function.
//
// Detection is syntactic: a defer is flagged when a for or range
// statement encloses it without a function literal in between. A loop
// built from a label and goto is not seen; the module writes none.
package deferloop

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer flags defers that execute once per loop iteration.
var Analyzer = &analysis.Analyzer{
	Name: "deferloop",
	Doc: "flag defer inside per-row loops in fascicle, cart and codec\n\n" +
		"A defer in a loop body releases nothing until the whole function\n" +
		"returns; over a million-row table that accumulates file handles and\n" +
		"buffers. Hoist the defer or wrap the loop body in a function.",
	Run: run,
}

var scope = []string{"fascicle", "cart", "codec"}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase(scope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch l := n.(type) {
			case *ast.ForStmt:
				checkLoopBody(pass, l.Body)
			case *ast.RangeStmt:
				checkLoopBody(pass, l.Body)
			}
			return true
		})
	}
	return nil
}

// checkLoopBody reports the defers of one loop body, stopping at
// function literals (their defers run per call) and at nested loops
// (run reaches those itself, so each defer is reported once).
func checkLoopBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer inside a loop runs only when the function returns; each iteration accumulates another pending call — hoist it out of the loop or wrap the body in a function")
		}
		return true
	})
}
