// Package boundedspawn flags goroutine spawns whose count scales with
// the data instead of the machine. The engine's parallel sections —
// the outlier scan, candidate building — follow one idiom:
//
//	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
//	for i := range work {
//	    wg.Add(1)
//	    sem <- struct{}{}            // blocks once GOMAXPROCS are running
//	    go func(i int) { defer wg.Done(); defer func() { <-sem }(); ... }(i)
//	}
//
// A spawn inside a row-bounded loop (the same classification hotalloc
// uses: the trip count follows input size, not a constant) with no such
// semaphore acquire before the go statement launches one goroutine per
// row — on a million-row table that is a million stacks before the
// scheduler gets a say. A sync.WaitGroup alone does not bound anything:
// it counts the goroutines, it does not gate their creation. Nor does a
// semaphore acquired *inside* the closure — by then the goroutine (and
// its stack) already exists.
//
// Loops whose bound is the worker count itself (runtime.GOMAXPROCS or
// runtime.NumCPU, directly or through a local variable assigned from
// them) are exempt: spawning one goroutine per core is the point.
// Helper calls are resolved through the "concsummary" facts, so a
// row-bounded loop calling a function that itself leaks an unjoined
// goroutine is flagged at the call site with the helper's spawn in the
// path.
package boundedspawn

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/conc"
	"repro/internal/analysis/loopbound"
)

// Analyzer flags unbounded per-row goroutine spawns.
var Analyzer = &analysis.Analyzer{
	Name: "boundedspawn",
	Doc: "flag goroutine spawns in row-bounded loops with no concurrency bound\n\n" +
		"A go statement inside a loop whose trip count follows the input\n" +
		"launches one goroutine per row. Gate creation with a semaphore sized\n" +
		"to runtime.GOMAXPROCS(0) (acquire before the go statement), or\n" +
		"restructure into a fixed worker pool.",
	Run: run,
}

var scope = []string{"core", "codec", "archive", "selector", "cart", "fascicle", "obs", "server", "spartand"}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase(scope...) {
		return nil
	}
	imported := conc.FactLookup(pass.Facts)
	local := conc.Compute(pass.Fset, pass.Files, pass.TypesInfo, imported)
	lookup := local.LookupIn(imported)
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
				checkBody(pass, body, lookup)
			}
			return true
		})
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, lookup conc.Lookup) {
	info := pass.TypesInfo
	for _, sp := range conc.Spawns(info, body, lookup) {
		if sp.Loop == nil || !loopbound.RowBounded(info, sp.Loop) {
			continue
		}
		// Helper spawns only matter when the goroutine outlives the
		// helper: a helper that waits for its own workers contributes
		// no concurrent goroutines to this loop.
		if sp.Via != nil && !sp.ViaConc.AsyncSpawn {
			continue
		}
		if workerCountLoop(info, body, sp.Loop) {
			continue
		}
		spawnPos := sp.Call.Pos()
		if sp.Go != nil {
			spawnPos = sp.Go.Pos()
		}
		if acquiresBefore(loopBodyOf(sp.Loop), spawnPos) {
			continue
		}
		related := []analysis.RelatedLocation{
			{Pos: sp.Loop.Pos(), Message: "row-bounded loop: trip count follows the input"},
		}
		var msg string
		if sp.Via != nil {
			related = append(related, analysis.RelatedLocation{Pos: sp.Call.Pos(), Message: fmt.Sprintf("%s called once per iteration", sp.Via.Name())})
			for _, site := range sp.ViaSites {
				related = append(related, analysis.RelatedLocation{Position: site.ToTokenPosition(), Message: fmt.Sprintf("goroutine spawned inside %s outlives the call", sp.Via.Name())})
			}
			msg = fmt.Sprintf("%s starts a goroutine that outlives it and is called once per row with no concurrency bound; acquire a GOMAXPROCS-sized semaphore before the call or join the goroutine inside %s", sp.Via.Name(), sp.Via.Name())
		} else {
			related = append(related, analysis.RelatedLocation{Pos: spawnPos, Message: "one goroutine per iteration"})
			msg = "goroutine spawned once per row with no concurrency bound; acquire a semaphore sized to runtime.GOMAXPROCS(0) before the go statement (a WaitGroup counts goroutines, it does not gate their creation)"
		}
		pass.Report(analysis.Diagnostic{Pos: spawnPos, Message: msg, Related: related})
	}
}

// loopBodyOf returns the loop's block.
func loopBodyOf(loop ast.Stmt) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// acquiresBefore reports whether the loop body performs a channel send
// (the semaphore-acquire idiom) before the spawn, outside nested
// function literals. A send inside the spawned closure releases nothing
// until after the goroutine exists, so it does not count.
func acquiresBefore(loopBody *ast.BlockStmt, spawnPos token.Pos) bool {
	if loopBody == nil {
		return false
	}
	found := false
	ast.Inspect(loopBody, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if s, ok := n.(*ast.SendStmt); ok && s.Pos() < spawnPos {
			found = true
			return false
		}
		return true
	})
	return found
}

// workerCountLoop reports whether the loop's bound is the machine's
// worker count: its condition or range expression mentions
// runtime.GOMAXPROCS or runtime.NumCPU, directly or through a variable
// the enclosing body defines from such a call.
func workerCountLoop(info *types.Info, body *ast.BlockStmt, loop ast.Stmt) bool {
	var bound ast.Expr
	switch l := loop.(type) {
	case *ast.ForStmt:
		bound = l.Cond
	case *ast.RangeStmt:
		bound = l.X
	}
	if bound == nil {
		return false
	}
	found := false
	ast.Inspect(bound, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWorkerCountCall(info, n) {
				found = true
				return false
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && definedFromWorkerCount(info, body, v) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isWorkerCountCall matches runtime.GOMAXPROCS(...) and runtime.NumCPU().
func isWorkerCountCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "runtime" {
		return false
	}
	return fn.Name() == "GOMAXPROCS" || fn.Name() == "NumCPU"
}

// definedFromWorkerCount reports whether v is bound in body by a :=
// (or var) statement whose right-hand side is a worker-count call,
// possibly inside arithmetic like max(1, runtime.NumCPU()/2).
func definedFromWorkerCount(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			def, isDef := info.Defs[id].(*types.Var)
			use, _ := info.Uses[id].(*types.Var)
			if !(isDef && def == v) && use != v {
				continue
			}
			var rhs ast.Expr
			if len(assign.Rhs) == len(assign.Lhs) {
				rhs = assign.Rhs[i]
			} else if len(assign.Rhs) == 1 {
				rhs = assign.Rhs[0]
			}
			if rhs == nil {
				continue
			}
			ast.Inspect(rhs, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isWorkerCountCall(info, call) {
					found = true
					return false
				}
				return true
			})
		}
		return !found
	})
	return found
}
