package conc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/summary"
)

// Spawn is one goroutine creation site in a function body: a direct go
// statement, or — through the concurrency summaries — a call to a
// helper that starts goroutines of its own.
type Spawn struct {
	// Go is the statement for direct spawns; nil for helper spawns.
	Go *ast.GoStmt
	// Call is the spawned call (Go.Call for direct spawns, the helper
	// call otherwise).
	Call *ast.CallExpr
	// Via is the summarized helper for indirect spawns, with the go
	// statements inside it (as resolved positions — the helper may
	// live in another package).
	Via      *types.Func
	ViaConc  *FuncConc
	ViaSites []summary.Position
	// Loop is the innermost loop statement (of this body) enclosing the
	// spawn, or nil: a spawn in a loop creates one goroutine per
	// iteration.
	Loop ast.Stmt
}

// Spawns collects the goroutine spawn sites lexically inside body —
// not inside nested function literals, whose spawns belong to whoever
// runs them. lookup (optional) resolves helper calls that spawn.
func Spawns(info *types.Info, body *ast.BlockStmt, lookup Lookup) []Spawn {
	var out []Spawn
	var loops []ast.Stmt
	innermost := func() ast.Stmt {
		if len(loops) == 0 {
			return nil
		}
		return loops[len(loops)-1]
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			loops = append(loops, n)
			ast.Inspect(n.Body, walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.RangeStmt:
			loops = append(loops, n)
			ast.Inspect(n.Body, walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.GoStmt:
			out = append(out, Spawn{Go: n, Call: n.Call, Loop: innermost()})
			// Arguments are evaluated at spawn time on this goroutine;
			// nothing below the go statement runs here.
			return false
		case *ast.CallExpr:
			if lookup == nil {
				return true
			}
			callee, dynamic, isCall := callgraph.StaticCallee(info, n)
			if !isCall || dynamic || callee == nil {
				return true
			}
			if cs := lookup(callee); cs != nil && cs.Spawns {
				out = append(out, Spawn{
					Call:     n,
					Via:      callee,
					ViaConc:  cs,
					ViaSites: cs.SpawnSites,
					Loop:     innermost(),
				})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}
