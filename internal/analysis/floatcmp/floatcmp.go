// Package floatcmp flags == and != between floating-point operands in
// the packages where SPARTAN's correctness depends on how floats are
// compared: internal/cart (split thresholds and per-attribute error
// tolerances), internal/fascicle (fascicle representative values, which
// must round-trip bit-identically through the float32 wire format, paper
// §3.4), and internal/selector (prediction-vs-materialization cost
// tie-breaking).
//
// Raw float equality in these packages is either a latent bug (an
// epsilon comparison was intended, violating a guaranteed tolerance) or
// an unstated bit-exactness requirement. Both must be spelled out via
// the helpers in internal/floats — floats.SameBits for deterministic
// bit-exact identity, floats.Within for tolerance checks.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags raw float equality in tolerance-critical packages.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc: "flag ==/!= on float operands in cart, fascicle and selector\n\n" +
		"Tolerance and split-value comparisons must use the internal/floats\n" +
		"helpers (SameBits for bit-exact identity, Within for epsilon checks).",
	Run: run,
}

// scope is the set of package base names the invariant applies to.
var scope = []string{"cart", "fascicle", "selector"}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase(scope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypeOf(be.X)) && !isFloat(pass.TypeOf(be.Y)) {
				return true
			}
			helper := "floats.SameBits"
			if be.Op == token.NEQ {
				helper = "!floats.SameBits"
			}
			pass.Reportf(be.OpPos, "%s compares floats with %s; use %s (bit-exact) or floats.Within (tolerance)",
				render(be), be.Op, helper)
			return true
		})
	}
	return nil
}

// isFloat reports whether t's underlying type is a floating-point kind
// (including complex halves is unnecessary: SPARTAN stores no complex).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// render gives a short source-ish rendering of the comparison operands
// for the diagnostic, without hauling in go/printer.
func render(be *ast.BinaryExpr) string {
	return exprString(be.X) + " " + be.Op.String() + " " + exprString(be.Y)
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.BasicLit:
		return e.Value
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.BinaryExpr:
		return exprString(e.X) + e.Op.String() + exprString(e.Y)
	default:
		return "expr"
	}
}
