// Package conc is spartanvet's goroutine-aware concurrency layer: the
// shared model the boundedspawn analyzer builds on, assembled from the
// existing callgraph and summary infrastructure.
//
// Two pieces live here:
//
//   - a goroutine-spawn model over function bodies (spawn.go): every go
//     statement with its innermost enclosing loop, plus — through the
//     concurrency summaries — calls to helpers that themselves start
//     goroutines;
//   - per-function concurrency summary facts (summary.go): goroutines
//     spawned and whether they can outlive the call — serialized
//     cross-package as the "concsummary" fact exactly like funcsummary.
//
// The model is deliberately conservative: it aims for zero false
// positives on the repo's established concurrency idiom (GOMAXPROCS
// semaphore + WaitGroup, joined before return) while still catching an
// unbounded per-row spawn. Races and leaked goroutines are left to the
// -race stress tests.
package conc

import (
	"go/ast"
	"go/types"
)

// isWaitGroupWait reports whether call is a Wait method call on a
// sync.WaitGroup (possibly via pointer) — the join point that bounds a
// spawned goroutine's lifetime.
func isWaitGroupWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
