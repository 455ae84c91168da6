// Package loopbound classifies loops by trip count: is a loop bounded
// by a small compile-time constant, or does it run once per row, value,
// or model — i.e. proportionally to the data? The distinction drives
// hotalloc, which flags per-iteration allocation in data-proportional
// loops only: a constant-trip loop allocates a constant amount, a
// row-bounded one allocates once per row.
//
// A loop counts as row-bounded when its trip count depends on data: any
// range loop over a non-constant operand, a for loop whose condition
// involves a non-constant bound, an unconditional for {}, or a
// countdown from a non-constant start (`for i := n; i > 0; i--` — the
// condition's bound is the constant 0 but the trip count is still n).
// Loops with small constant bounds (`for i := 0; i < 8; i++`) are not.
package loopbound

import (
	"go/ast"
	"go/types"
)

// RowBoundedFor reports whether a for loop's trip count depends on
// data: no condition at all, a comparison whose bound side is
// non-constant, or a countdown from a non-constant start.
func RowBoundedFor(info *types.Info, loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true // for {} — bounded only by a break
	}
	cmp, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok {
		return true // unusual condition: assume data-dependent
	}
	iv := InductionVar(info, loop)
	var bound ast.Expr
	switch {
	case iv != nil && sameVar(info, cmp.X, iv):
		bound = cmp.Y
	case iv != nil && sameVar(info, cmp.Y, iv):
		bound = cmp.X
	default:
		// No recognizable induction variable in the comparison: the
		// loop is constant-bounded only when both operands are.
		return !IsConstant(info, cmp.X) || !IsConstant(info, cmp.Y)
	}
	if !IsConstant(info, bound) {
		return true
	}
	// Constant bound on the induction variable; the trip count is
	// constant only if the start value is too.
	return !constantStart(info, loop.Init, iv)
}

// RowBoundedRange reports whether a range loop iterates over data
// rather than a constant count (go 1.22 range-over-int).
func RowBoundedRange(info *types.Info, loop *ast.RangeStmt) bool {
	return !IsConstant(info, loop.X)
}

// RowBounded dispatches on the loop statement kind; non-loop statements
// are never row-bounded.
func RowBounded(info *types.Info, loop ast.Stmt) bool {
	switch loop := loop.(type) {
	case *ast.ForStmt:
		return RowBoundedFor(info, loop)
	case *ast.RangeStmt:
		return RowBoundedRange(info, loop)
	}
	return false
}

// InductionVar returns the variable stepped by the loop's post
// statement (i++, i--, i += k, i = i + k), or nil.
func InductionVar(info *types.Info, loop *ast.ForStmt) *types.Var {
	switch post := loop.Post.(type) {
	case *ast.IncDecStmt:
		if id, ok := post.X.(*ast.Ident); ok {
			return VarOf(info, id)
		}
	case *ast.AssignStmt:
		if len(post.Lhs) == 1 {
			if id, ok := post.Lhs[0].(*ast.Ident); ok {
				return VarOf(info, id)
			}
		}
	}
	return nil
}

// constantStart reports whether the loop init assigns the induction
// variable a compile-time constant value. A nil or unrecognized init
// (variable initialized elsewhere) counts as non-constant.
func constantStart(info *types.Info, init ast.Stmt, iv *types.Var) bool {
	assign, ok := init.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != len(assign.Rhs) {
		return false
	}
	for i, lhs := range assign.Lhs {
		if sameVar(info, lhs, iv) {
			return IsConstant(info, assign.Rhs[i])
		}
	}
	return false
}

// sameVar reports whether e is an identifier resolving to v.
func sameVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	id, ok := e.(*ast.Ident)
	return ok && VarOf(info, id) == v
}

// IsConstant reports whether the expression has a compile-time constant
// value.
func IsConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// IsBuiltin reports whether fun denotes the named builtin.
func IsBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// VarOf resolves an identifier to its variable object.
func VarOf(info *types.Info, id *ast.Ident) *types.Var {
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	return v
}
