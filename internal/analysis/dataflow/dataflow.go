// Package dataflow is a generic intraprocedural dataflow engine over
// the CFGs of package cfg: a forward/backward worklist solver
// parameterized by a small lattice interface, plus the two classic
// instances spartanvet's flow-sensitive analyzers build on —
// reaching definitions (which assignment of a variable can be live at a
// use) and liveness (which variables are still needed after a point).
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

// Direction selects how facts propagate through the graph.
type Direction int

const (
	// Forward propagates facts from entry along successor edges
	// (reaching definitions, available expressions).
	Forward Direction = iota
	// Backward propagates facts from the exits along predecessor edges
	// (liveness, very busy expressions).
	Backward
)

// Problem is the lattice-plus-transfer description of one dataflow
// analysis. S is the abstract state attached to block boundaries.
// Implementations must treat states as immutable: Join and Transfer
// return fresh values rather than mutating their inputs.
type Problem[S any] interface {
	Direction() Direction
	// Boundary is the state at the graph's boundary: the entry block
	// for a forward problem, the exit (and every dead-end block) for a
	// backward one.
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
// end (Out), in execution order regardless of problem direction.
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

	forward := p.Direction() == Forward
	// sources returns the edges facts arrive over; sinks the blocks to
	// revisit when this block's result changes.
	sources := func(b *cfg.Block) []*cfg.Block {
		if forward {
			return b.Preds
		}
		return b.Succs
	}
	sinks := func(b *cfg.Block) []*cfg.Block {
		if forward {
			return b.Succs
		}
		return b.Preds
	}
	isBoundary := func(b *cfg.Block) bool {
		if forward {
			return b.Index == 0 // entry
		}
		// Backward boundary: the exit and every dead-end (panic) block.
		return len(b.Succs) == 0
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

		var arrive S
		if isBoundary(b) {
			arrive = p.Boundary()
		} else {
			arrive = p.Init()
		}
		for _, src := range sources(b) {
			if forward {
				arrive = p.Join(arrive, res.Out[src])
			} else {
				arrive = p.Join(arrive, res.In[src])
			}
		}
		depart := p.Transfer(b, arrive)

		if forward {
			res.In[b] = arrive
			if p.Equal(depart, res.Out[b]) {
				continue
			}
			res.Out[b] = depart
		} else {
			res.Out[b] = arrive
			if p.Equal(depart, res.In[b]) {
				continue
			}
			res.In[b] = depart
		}
		for _, s := range sinks(b) {
			if !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return res
}
