// Package dataflow is a generic intraprocedural dataflow engine over
// the CFGs of package cfg: a forward worklist solver parameterized by a
// small lattice interface, plus the classic instance spartanvet's
// flow-sensitive analyzers build on — reaching definitions (which
// assignment of a variable can be live at a use).
//
// An analyzer defines its own problem by implementing Problem[S]: the
// abstract state type S, its join and equality, a boundary value, and a
// per-block transfer function. Solve iterates to a fixpoint; SPARTAN
// function CFGs are small and every lattice in use has finite height,
// so the plain worklist algorithm terminates in a handful of passes.
package dataflow

import (
	"repro/internal/analysis/cfg"
)

// Problem is the lattice-plus-transfer description of one dataflow
// analysis. S is the abstract state attached to block boundaries.
// Implementations must treat states as immutable: Join and Transfer
// return fresh values rather than mutating their inputs.
type Problem[S any] interface {
	// Boundary is the state at the entry block.
	Boundary() S
	// Init is the optimistic initial state of every other block,
	// typically the lattice bottom (empty set for may-problems, full
	// set for must-problems).
	Init() S
	// Join combines states flowing in over multiple edges.
	Join(a, b S) S
	// Equal decides convergence.
	Equal(a, b S) bool
	// Transfer pushes a state through one block's statements.
	Transfer(b *cfg.Block, in S) S
}

// Result holds the fixpoint: the state at each block's start (In) and
// end (Out).
type Result[S any] struct {
	In  map[*cfg.Block]S
	Out map[*cfg.Block]S
}

// Solve runs the worklist algorithm to a fixpoint and returns the
// per-block boundary states.
func Solve[S any](g *cfg.CFG, p Problem[S]) Result[S] {
	res := Result[S]{In: map[*cfg.Block]S{}, Out: map[*cfg.Block]S{}}
	for _, b := range g.Blocks {
		res.In[b] = p.Init()
		res.Out[b] = p.Init()
	}

	work := make([]*cfg.Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make([]bool, len(g.Blocks))
	for i := range queued {
		queued[i] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		in := p.Init()
		if b.Index == 0 { // entry
			in = p.Boundary()
		}
		for _, pred := range b.Preds {
			in = p.Join(in, res.Out[pred])
		}
		res.In[b] = in
		out := p.Transfer(b, in)
		if p.Equal(out, res.Out[b]) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			if !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return res
}
