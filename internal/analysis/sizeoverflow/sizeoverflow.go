// Package sizeoverflow implements the size-arithmetic overflow check,
// the second analyzer on spartanvet's interprocedural layer. Where
// taintalloc asks "does an unbounded wire value reach an allocation?",
// sizeoverflow asks "does the arithmetic *around* wire values stay in
// range?" — two rules, both driven by the same edge-sensitive taint
// engine in internal/analysis/summary:
//
//   - narrowing: a value-changing integer conversion of a wire-tainted
//     value (uint64→int, int64→int32, any signedness flip at equal
//     width). A 2^63 wire delta converted with int(delta) wraps
//     negative, sails past `row >= nrows` checks, and panics as a
//     negative slice index. Compare the value against a limit first —
//     the conversion of a bounded value is fine.
//   - products: a multiplication or left shift with a wire-tainted
//     operand (rows*cols, n<<k). Even individually-bounded factors can
//     overflow the product; bound each factor so the product fits, or
//     cross-check with a division (`a > Max/b`) — both kill the taint.
//
// Only a comparison (or builtin min) clears a value: a mask such as
// `n & 0xffff` does not, so a masked conversion is still reported.
//
// Scope: codec, cart, archive — the hostile-input decode path.
package sizeoverflow

import (
	"fmt"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/summary"
	"repro/internal/analysis/taintalloc"
)

// Analyzer flags overflow-prone size arithmetic on wire-tainted values.
var Analyzer = &analysis.Analyzer{
	Name: "sizeoverflow",
	Doc:  "sizeoverflow: report overflow-prone arithmetic on untrusted wire integers — value-changing narrowing conversions (uint64→int wraps a huge count negative) and unguarded products/shifts feeding size computations; bound the value first (DecodeLimits comparison or builtin min)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase("codec", "cart", "archive") {
		return nil
	}
	res := summary.Compute(pass.Fset, pass.Files, pass.TypesInfo, summary.FactLookup(pass.Facts))

	fns := make([]*types.Func, 0, len(res.Flows))
	for fn := range res.Flows {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	for _, fn := range fns {
		flow := res.Flows[fn]
		for _, h := range flow.Narrowings {
			if !h.Taint.FromSource() {
				continue
			}
			pass.Report(analysis.Diagnostic{
				Pos: h.Pos,
				Message: fmt.Sprintf(
					"wire-tainted %s narrowed to %s without a range check; a hostile value changes meaning (wraps or flips sign) — bound it first",
					h.From, h.To),
				Related: taintalloc.StepsPath(h.Taint),
			})
		}
		for _, h := range flow.Products {
			if !h.Taint.FromSource() {
				continue
			}
			pass.Report(analysis.Diagnostic{
				Pos: h.Pos,
				Message: fmt.Sprintf(
					"size arithmetic (%s) on a wire-tainted operand may overflow; bound the factors (DecodeLimits comparison or builtin min) before multiplying",
					h.Op),
				Related: taintalloc.StepsPath(h.Taint),
			})
		}
	}
	return nil
}
