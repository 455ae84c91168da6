// Package hotalloc flags allocation patterns inside row-count-bounded
// loops in the hot packages (fascicle, cart, codec): the loops there
// run once per row or once per value, so a slice grown by append from
// zero capacity re-allocates O(log n) times and copies O(n) elements,
// a hint-less map rehashes as it grows, and a make inside the loop
// body allocates fresh garbage every iteration.
//
// A loop counts as row-bounded when its trip count depends on data
// (the classification lives in internal/analysis/loopbound): any range
// loop, a for loop whose condition involves a non-constant bound, or an
// unconditional for {}. Loops with small constant bounds
// (`for i := 0; i < 8; i++`) are exempt.
//
// The growth checks are flow-sensitive: the container's creation is
// resolved through reaching definitions, so re-making a slice with
// capacity just before the loop clears the earlier hint-less
// declaration, and containers created inside the loop body or received
// as parameters are left alone.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
	"repro/internal/analysis/loopbound"
)

// Analyzer flags hint-less allocations in row-bounded loops.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag append/make/map growth without capacity hints inside row-bounded loops\n\n" +
		"In fascicle, cart, and codec the per-row loops dominate runtime;\n" +
		"growing a container there from zero capacity re-allocates and\n" +
		"copies repeatedly. Pre-size with make(T, 0, n) / make(map, n), or\n" +
		"hoist per-iteration makes out of the loop.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase("fascicle", "cart", "codec") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkBody(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkBody walks one function body (nested literals get their own
// visit) tracking the stack of enclosing row-bounded loops.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	hasLoop := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			hasLoop = true
		}
		return !hasLoop
	})
	if !hasLoop {
		return
	}

	var rd *dataflow.ReachingDefs // built lazily on the first growth site
	reaching := func() *dataflow.ReachingDefs {
		if rd == nil {
			rd = dataflow.NewReachingDefs(cfg.New(body), pass.TypesInfo, nil)
		}
		return rd
	}

	var loops []ast.Stmt // innermost row-bounded loop is last
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if loopbound.RowBoundedFor(pass.TypesInfo, n) {
				loops = append(loops, n)
				ast.Inspect(n.Body, walk)
				loops = loops[:len(loops)-1]
				return false
			}
		case *ast.RangeStmt:
			if loopbound.RowBoundedRange(pass.TypesInfo, n) {
				loops = append(loops, n)
				ast.Inspect(n.Body, walk)
				loops = loops[:len(loops)-1]
				return false
			}
		case *ast.CallExpr:
			if len(loops) > 0 && isBuiltin(pass, n.Fun, "make") && makeLacksHint(pass, n) {
				kind := "slice"
				if _, ok := pass.TypeOf(n).Underlying().(*types.Map); ok {
					kind = "map"
				}
				pass.Reportf(n.Pos(), "make allocates a hint-less %s on every iteration of this row-bounded loop — hoist it out, or pre-size it with a capacity", kind)
			}
		case *ast.AssignStmt:
			if len(loops) > 0 {
				checkGrowth(pass, reaching, loops[len(loops)-1], n)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkGrowth flags `s = append(s, ...)` and `m[k] = v` growth of
// containers that were created before the loop without capacity hints.
func checkGrowth(pass *analysis.Pass, reaching func() *dataflow.ReachingDefs, loop ast.Stmt, assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			// s = append(s, ...) with s on both sides.
			if i >= len(assign.Rhs) {
				continue
			}
			call, ok := assign.Rhs[i].(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
				continue
			}
			arg, ok := call.Args[0].(*ast.Ident)
			if !ok || arg.Name != lhs.Name {
				continue
			}
			v := varOf(pass, arg)
			if v == nil {
				continue
			}
			if hintlessOutsideCreation(pass, reaching(), loop, v, call.Pos()) {
				pass.Reportf(call.Pos(), "append grows %s inside a row-bounded loop, but it was created without a capacity hint — pre-size it with make(len 0, cap n) before the loop", v.Name())
			}
		case *ast.IndexExpr:
			// m[k] = v on a map.
			id, ok := lhs.X.(*ast.Ident)
			if !ok {
				continue
			}
			v := varOf(pass, id)
			if v == nil {
				continue
			}
			if _, isMap := v.Type().Underlying().(*types.Map); !isMap {
				continue
			}
			if hintlessOutsideCreation(pass, reaching(), loop, v, lhs.Pos()) {
				pass.Reportf(lhs.Pos(), "%s grows inside a row-bounded loop but was created without a size hint — pass the expected element count to make", v.Name())
			}
		}
	}
}

// hintlessOutsideCreation reports whether every reaching definition of v
// at pos that originates outside the loop is a creation without a
// capacity hint. Parameter defs, unknown creations, or any hinted
// creation disqualify the site; defs inside the loop (including the
// loop-carried append itself) are ignored.
func hintlessOutsideCreation(pass *analysis.Pass, rd *dataflow.ReachingDefs, loop ast.Stmt, v *types.Var, pos token.Pos) bool {
	sawOutside := false
	for _, d := range rd.DefsAt(v, pos) {
		if d.Site == nil {
			return false // parameter or named result: caller's choice
		}
		if loop.Pos() <= d.Site.Pos() && d.Site.End() <= loop.End() {
			continue // defined inside the loop (e.g. the append itself)
		}
		sawOutside = true
		hintless, known := hintlessCreation(pass, d)
		if !known || !hintless {
			return false
		}
	}
	return sawOutside
}

// hintlessCreation classifies one definition site: known=true when the
// site is recognizably a container creation, hintless=true when that
// creation carries no capacity/size hint.
func hintlessCreation(pass *analysis.Pass, d dataflow.Def) (hintless, known bool) {
	switch site := d.Site.(type) {
	case *ast.DeclStmt:
		// var s []T — the zero value has no capacity. A var with an
		// initializer is classified by its expression.
		gd, ok := site.Decl.(*ast.GenDecl)
		if !ok {
			return false, false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name != d.Ident {
					continue
				}
				if len(vs.Values) == 0 {
					return true, true
				}
				if i < len(vs.Values) {
					return classifyCreationExpr(pass, vs.Values[i])
				}
			}
		}
		return false, false
	case *ast.AssignStmt:
		for i, lhs := range site.Lhs {
			if lhs != ast.Expr(d.Ident) {
				continue
			}
			if len(site.Lhs) == len(site.Rhs) {
				return classifyCreationExpr(pass, site.Rhs[i])
			}
			return false, false // multi-value call: unknown origin
		}
		return false, false
	default:
		return false, false
	}
}

// classifyCreationExpr decides whether an initializer expression creates
// a container without a capacity hint.
func classifyCreationExpr(pass *analysis.Pass, e ast.Expr) (hintless, known bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		if isBuiltin(pass, e.Fun, "make") {
			return makeLacksHint(pass, e), true
		}
		return false, false // some constructor: trust it
	case *ast.CompositeLit:
		// []T{} and map[K]V{} have no capacity; a literal with elements
		// at least starts at its length.
		return len(e.Elts) == 0, true
	case *ast.Ident:
		if e.Name == "nil" {
			return true, true
		}
		return false, false
	default:
		return false, false
	}
}

// makeLacksHint reports whether a make call allocates a slice with no
// usable capacity or a map with no size hint. Channels never qualify.
func makeLacksHint(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	t := pass.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		if len(call.Args) >= 3 {
			return false // explicit capacity
		}
		if len(call.Args) == 2 {
			// make([]T, 0) has no room; make([]T, n) is pre-sized.
			return isZeroLiteral(pass, call.Args[1])
		}
		return false
	case *types.Map:
		return len(call.Args) == 1
	}
	return false
}

// isZeroLiteral reports whether e is the constant 0.
func isZeroLiteral(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	return loopbound.IsBuiltin(pass.TypesInfo, fun, name)
}

// varOf resolves an identifier to its variable object.
func varOf(pass *analysis.Pass, id *ast.Ident) *types.Var {
	return loopbound.VarOf(pass.TypesInfo, id)
}
