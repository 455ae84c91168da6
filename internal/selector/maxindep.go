package selector

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/wmis"
)

// MaxIndependentSet is the paper's Figure 4 algorithm. Starting from
// all-materialized, each iteration:
//
//  1. builds, for every materialized Xᵢ, a CaRT from its "materialized
//     neighborhood" (neighbors that are materialized, plus the predictor
//     sets of neighbors that are already predicted);
//  2. estimates cost_changeᵢ — the effect on already-selected CaRTs of
//     replacing Xᵢ (as their predictor) with Xᵢ's own predictors
//     (NEW_PRED rewiring);
//  3. forms the node-weighted undirected graph G_temp on the materialized
//     attributes, with weight(Xᵢ) = MaterCost − PredCost + cost_changeᵢ,
//     edges from every predictor relation, and a clique over each selected
//     predictor set (so at most one member of any PRED set is chosen);
//  4. moves a (near-optimal) maximum-weight independent set to the
//     predicted side, rewiring affected predictors.
//
// Iterations continue until no positive-benefit set exists. ctx is checked
// at the top of every WMIS iteration (each buildCandidate round) and inside
// every CaRT construction, so a cancel abandons the search within one tree
// build and returns the wrapped context error.
func MaxIndependentSet(ctx context.Context, in Input, nb Neighborhood) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	n := in.Sample.Table().NumCols()
	mat := make(map[int]bool, n) // 𝒳_mat
	for i := 0; i < n; i++ {
		mat[i] = true
	}
	predicted := map[int]*estimate{} // 𝒳_pred with current models
	var w work

	neighborhood := func(i int) []int {
		if nb == MarkovBlanket {
			return in.Net.MarkovBlanket(i)
		}
		return in.Net.Parents(i)
	}

	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("selector: WMIS iteration cancelled: %w", err)
		}
		// Step 1-2: candidate CaRT + rewiring estimates per materialized
		// attribute. Each Xᵢ's work reads only immutable iteration state,
		// so the (expensive) CaRT constructions run in parallel; results
		// land in per-Xᵢ slots, keeping the algorithm deterministic.
		matList := sortedKeys(mat)
		slots := make([]candidateSlot, len(matList))
		err := par.ForEach(ctx, len(matList), 0, func(ctx context.Context, si int) error {
			xi := matList[si]
			slots[si] = buildCandidate(ctx, in, xi, neighborhood(xi), mat, predicted)
			return ctx.Err() // a build cut short by cancellation is partial
		})
		if err != nil {
			return nil, fmt.Errorf("selector: WMIS iteration cancelled: %w", err)
		}

		cand := map[int]*estimate{}            // Xᵢ -> candidate model
		newPred := map[int]map[int]*estimate{} // Xᵢ -> (Xⱼ -> rewired model)
		costChange := map[int]float64{}
		for si, xi := range matList {
			s := &slots[si]
			w.merge(s.work)
			cand[xi] = s.cand
			if len(s.newPred) > 0 {
				newPred[xi] = s.newPred
			}
			costChange[xi] = s.costChange
		}

		// Step 3: build G_temp.
		index := map[int]int{}
		for gi, xi := range matList {
			index[xi] = gi
		}
		g := wmis.NewGraph(len(matList))
		for gi, xi := range matList {
			// weight = MaterCost − PredCost + cost_change (Step 18), where
			// cost_change sums (old − new) prediction costs of rewired
			// downstream CaRTs.
			g.SetWeight(gi, in.materCost(xi)-cand[xi].cost+costChange[xi])
		}
		addEdges := func(set []int, extra int) {
			nodes := set
			if extra >= 0 {
				nodes = append(append([]int(nil), set...), extra)
			}
			for a := 0; a < len(nodes); a++ {
				for b := a + 1; b < len(nodes); b++ {
					ia, oka := index[nodes[a]]
					ib, okb := index[nodes[b]]
					if oka && okb && ia != ib {
						_ = g.AddEdge(ia, ib)
					}
				}
			}
		}
		// Clique over each selected CaRT's predictor set.
		for _, xj := range sortedKeys2(predicted) {
			addEdges(predicted[xj].used, -1)
		}
		// Edges between each materialized Xᵢ and its candidate predictors.
		for _, xi := range matList {
			if cand[xi].model != nil {
				addEdges(cand[xi].used, xi)
			}
		}

		// Step 4: solve and apply.
		sel := wmis.Solve(g)
		if len(sel) == 0 || g.SetWeightSum(sel) <= 0 {
			break
		}
		selAttrs := make([]int, len(sel))
		for i, gi := range sel {
			selAttrs[i] = matList[gi]
		}
		// Rewire predicted attributes whose PRED intersects the selection.
		for _, xj := range sortedKeys2(predicted) {
			for _, xi := range selAttrs {
				if contains(predicted[xj].used, xi) {
					if np := newPred[xi][xj]; np != nil {
						predicted[xj] = np
					}
				}
			}
		}
		for _, xi := range selAttrs {
			predicted[xi] = cand[xi]
			delete(mat, xi)
		}
		w.merge(repairPlan(ctx, in, mat, predicted))
	}

	res := finishResult(in, predicted, w)
	return res, res.Validate()
}

// repairPlan restores the invariant that every selected CaRT's predictors
// are materialized. The G_temp cliques guarantee it for the *current*
// predictor sets, but a NEW_PRED rewiring can fail to build (leaving a
// stale model) or introduce members that this same iteration moved to the
// predicted side. Offending models are rebuilt against materialized
// attributes only; if that fails, the attribute reverts to materialized
// (which is always safe: predicted attributes are never predictors).
// Returns the CaRTs built and their nodes.
func repairPlan(ctx context.Context, in Input, mat map[int]bool, predicted map[int]*estimate) work {
	var w work
	for changed := true; changed; {
		changed = false
		for _, xj := range sortedKeys2(predicted) {
			est := predicted[xj]
			bad := false
			for _, u := range est.used {
				if !mat[u] {
					bad = true
					break
				}
			}
			if !bad {
				continue
			}
			// Substitute each predicted member with its own predictors.
			cands := map[int]bool{}
			for _, u := range est.used {
				if mat[u] {
					cands[u] = true
					continue
				}
				if sub, ok := predicted[u]; ok {
					for _, p := range sub.used {
						if mat[p] {
							cands[p] = true
						}
					}
				}
			}
			candList := make([]int, 0, len(cands))
			for c := range cands {
				candList = append(candList, c)
			}
			sort.Ints(candList)
			newEst, ok := buildEstimate(ctx, in, xj, candList)
			if len(candList) > 0 {
				w.add(newEst)
			}
			if ok {
				predicted[xj] = &newEst
			} else {
				delete(predicted, xj)
				mat[xj] = true
			}
			changed = true
		}
	}
	return w
}

// candidateSlot is the result of one materialized attribute's Step 1-2
// work.
type candidateSlot struct {
	cand       *estimate
	newPred    map[int]*estimate
	costChange float64
	work       work
}

// buildCandidate performs Steps 5-14 of Figure 4 for one materialized
// attribute: build its candidate CaRT from the materialized neighborhood,
// then estimate the rewiring cost for every selected CaRT that currently
// uses it.
func buildCandidate(ctx context.Context, in Input, xi int, neigh []int, mat map[int]bool, predicted map[int]*estimate) candidateSlot {
	var s candidateSlot
	cands := materNeighbors(xi, neigh, mat, predicted)
	est, ok := buildEstimate(ctx, in, xi, cands)
	if len(cands) > 0 {
		s.work.add(est)
	}
	if !ok {
		s.cand = &estimate{cost: est.cost} // +Inf cost, weight < 0
		return s
	}
	s.cand = &est

	// Rewiring: for every predicted Xⱼ currently using Xᵢ, rebuild its
	// CaRT with Xᵢ replaced by PRED(Xᵢ).
	for _, xj := range sortedKeys2(predicted) {
		if !contains(predicted[xj].used, xi) {
			continue
		}
		np := union(remove(predicted[xj].used, xi), est.used)
		newEst, ok2 := buildEstimate(ctx, in, xj, np)
		s.work.add(newEst)
		if !ok2 {
			continue
		}
		if s.newPred == nil {
			s.newPred = map[int]*estimate{}
		}
		s.newPred[xj] = &newEst
		s.costChange += predicted[xj].cost - newEst.cost
	}
	return s
}

// materNeighbors computes the paper's mater_neighbors(Xᵢ): materialized
// neighbors directly, predicted neighbors replaced by their own (all
// materialized) predictor sets.
func materNeighbors(xi int, neigh []int, mat map[int]bool, predicted map[int]*estimate) []int {
	set := map[int]bool{}
	for _, x := range neigh {
		if x == xi {
			continue
		}
		if mat[x] {
			set[x] = true
			continue
		}
		if est, ok := predicted[x]; ok {
			for _, p := range est.used {
				if p != xi {
					set[p] = true
				}
			}
		}
	}
	out := make([]int, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedKeys2(m map[int]*estimate) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func remove(s []int, x int) []int {
	out := make([]int, 0, len(s))
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

func union(a, b []int) []int {
	set := map[int]bool{}
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
