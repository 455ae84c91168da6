package cart

import (
	"context"
	"math"
	"sort"

	"repro/internal/floats"
	"repro/internal/table"
)

// regression tree construction (paper §3.3, numeric targets).
//
// A leaf predicting value p satisfies the tolerance for every row whose
// target value lies in [p-tol, p+tol]; the remaining rows are outliers. The
// best constant for a leaf is therefore the center of the length-2·tol
// window covering the most rows (computed by a sliding window over the
// sorted leaf values). Split selection minimizes the sum of squared errors
// (the classic CART criterion) which is an efficient proxy for narrowing
// leaf windows; storage-cost pruning then decides whether a split is kept.

// leafStatsRegression returns the best constant prediction, the number of
// rows it fails to cover, and whether the leaf is "acceptable" (no
// outliers), for the given rows.
func (b *treeBuilder) leafStatsRegression(rows []int) (pred float64, outliers int) {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = b.t.Float(r, b.target)
	}
	sort.Float64s(vals)
	if len(vals) == 0 {
		return 0, 0
	}
	// Sliding window of width 2·tol maximizing coverage.
	bestLo, bestCount := 0, 1
	lo := 0
	for hi := 0; hi < len(vals); hi++ {
		for vals[hi]-vals[lo] > 2*b.tol {
			lo++
		}
		if hi-lo+1 > bestCount {
			bestCount = hi - lo + 1
			bestLo = lo
		}
	}
	hiIdx := bestLo + bestCount - 1
	// Predictions are rounded through float32 (their wire format) here, so
	// the outlier scan sees exactly the prediction the decompressor will
	// compute. Rows the rounding pushes past the bound simply become
	// outliers.
	pred = floats.F32((vals[bestLo] + vals[hiIdx]) / 2)
	return pred, len(vals) - bestCount
}

// buildRegression grows (and under PruneIntegrated, prunes) a subtree for
// the given sample rows, returning the subtree and its estimated storage
// cost in bits.
func (b *treeBuilder) buildRegression(ctx context.Context, rows []int, depth int) (*Node, float64) {
	if b.cancelled(ctx) {
		return &Node{Leaf: true}, 0
	}
	pred, outliers := b.leafStatsRegression(rows)
	leaf := &Node{Leaf: true, NumValue: pred}
	leafCost := b.cm.LeafBits(b.target) + b.outlierCost(outliers)

	// Stop conditions: acceptable leaf (paper's optimization 2), depth or
	// size bounds.
	if outliers == 0 || depth >= b.cfg.MaxDepth || len(rows) < 2*b.cfg.MinLeafRows {
		return leaf, leafCost
	}
	// Integrated pruning: if no expansion can beat the leaf, stop now.
	if b.cfg.Prune == PruneIntegrated && leafCost <= b.leafFloor() {
		return leaf, leafCost
	}

	split, ok := b.bestSplitSSE(rows, b.targetFloats(rows))
	if !ok {
		return leaf, leafCost
	}
	leftRows, rightRows := b.partition(rows, split)
	if len(leftRows) < b.cfg.MinLeafRows || len(rightRows) < b.cfg.MinLeafRows {
		return leaf, leafCost
	}
	leftNode, leftCost := b.buildRegression(ctx, leftRows, depth+1)
	rightNode, rightCost := b.buildRegression(ctx, rightRows, depth+1)
	splitCost := b.cm.InternalBits(split.attr) + leftCost + rightCost

	if b.cfg.Prune == PruneIntegrated && leafCost <= splitCost {
		return leaf, leafCost
	}
	n := &Node{
		SplitAttr:  split.attr,
		SplitValue: split.value,
		SplitLeft:  split.leftCodes,
		SplitIsCat: split.isCat,
		Left:       leftNode,
		Right:      rightNode,
	}
	return n, splitCost
}

// pruneRegression is the post-hoc pruning pass for PruneAfter mode:
// bottom-up, replace any subtree whose leaf-equivalent costs no more.
func (b *treeBuilder) pruneRegression(ctx context.Context, n *Node, rows []int) (*Node, float64) {
	if b.cancelled(ctx) {
		return n, 0
	}
	pred, outliers := b.leafStatsRegression(rows)
	leafCost := b.cm.LeafBits(b.target) + b.outlierCost(outliers)
	if n.Leaf {
		return n, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	left, leftCost := b.pruneRegression(ctx, n.Left, leftRows)
	right, rightCost := b.pruneRegression(ctx, n.Right, rightRows)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost
	if leafCost <= splitCost {
		return &Node{Leaf: true, NumValue: pred}, leafCost
	}
	n.Left, n.Right = left, right
	return n, splitCost
}

func (b *treeBuilder) targetFloats(rows []int) []float64 {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = b.t.Float(r, b.target)
	}
	return vals
}

// candidateSplit describes one evaluated split.
type candidateSplit struct {
	attr      int
	isCat     bool
	value     float64 // numeric threshold
	leftCodes []int32 // categorical left set
	score     float64 // lower is better (total child SSE / Gini)
}

// bestSplitSSE evaluates every candidate attribute and returns the split
// minimizing total child SSE of the target values. ok is false when no
// attribute admits a valid split (all predictor values constant).
func (b *treeBuilder) bestSplitSSE(rows []int, y []float64) (candidateSplit, bool) {
	best := candidateSplit{score: math.Inf(1)}
	found := false
	for _, attr := range b.cands {
		var s candidateSplit
		var ok bool
		if b.t.Attr(attr).Kind == table.Numeric {
			s, ok = b.numericSplitSSE(rows, y, attr)
		} else {
			s, ok = b.categoricalSplitSSE(rows, y, attr)
		}
		if ok && s.score < best.score {
			best = s
			found = true
		}
	}
	return best, found
}

// numericSplitSSE scans thresholds of a numeric predictor via sorted order
// and prefix sums, in O(n log n).
func (b *treeBuilder) numericSplitSSE(rows []int, y []float64, attr int) (candidateSplit, bool) {
	n := len(rows)
	type pair struct {
		x, y float64
	}
	ps := make([]pair, n)
	for i, r := range rows {
		ps[i] = pair{b.t.Float(r, attr), y[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
	if floats.SameBits(ps[0].x, ps[n-1].x) {
		return candidateSplit{}, false
	}
	sum, sumsq := 0.0, 0.0
	total, totalsq := 0.0, 0.0
	for _, p := range ps {
		total += p.y
		totalsq += p.y * p.y
	}
	best := candidateSplit{attr: attr, score: math.Inf(1)}
	found := false
	for k := 1; k < n; k++ {
		sum += ps[k-1].y
		sumsq += ps[k-1].y * ps[k-1].y
		if floats.SameBits(ps[k-1].x, ps[k].x) {
			continue // not a realizable threshold
		}
		if k < b.cfg.MinLeafRows || n-k < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(k), float64(n-k)
		sseL := sumsq - sum*sum/fl
		sseR := (totalsq - sumsq) - (total-sum)*(total-sum)/fr
		if score := sseL + sseR; score < best.score {
			best.score = score
			// Thresholds live as float32 on the wire; rounding here keeps
			// build-time and decode-time routing identical.
			best.value = floats.F32((ps[k-1].x + ps[k].x) / 2)
			found = true
		}
	}
	return best, found
}

// categoricalSplitSSE orders the predictor's codes by mean target value and
// scans prefix partitions — the classic optimal-for-SSE ordering trick.
func (b *treeBuilder) categoricalSplitSSE(rows []int, y []float64, attr int) (candidateSplit, bool) {
	type group struct {
		code  int32
		sum   float64
		sumsq float64
		n     int
	}
	groups := make(map[int32]*group, b.t.Col(attr).DomainSize())
	for i, r := range rows {
		c := b.t.Code(r, attr)
		g := groups[c]
		if g == nil {
			g = &group{code: c}
			groups[c] = g
		}
		g.sum += y[i]
		g.sumsq += y[i] * y[i]
		g.n++
	}
	if len(groups) < 2 {
		return candidateSplit{}, false
	}
	gs := make([]*group, 0, len(groups))
	for _, g := range groups {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool {
		mi, mj := gs[i].sum/float64(gs[i].n), gs[j].sum/float64(gs[j].n)
		if !floats.SameBits(mi, mj) {
			return mi < mj
		}
		return gs[i].code < gs[j].code
	})
	total, totalsq, n := 0.0, 0.0, 0
	for _, g := range gs {
		total += g.sum
		totalsq += g.sumsq
		n += g.n
	}
	best := candidateSplit{attr: attr, isCat: true, score: math.Inf(1)}
	found := false
	sum, sumsq, cnt := 0.0, 0.0, 0
	for k := 0; k < len(gs)-1; k++ {
		sum += gs[k].sum
		sumsq += gs[k].sumsq
		cnt += gs[k].n
		if cnt < b.cfg.MinLeafRows || n-cnt < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(cnt), float64(n-cnt)
		sseL := sumsq - sum*sum/fl
		sseR := (totalsq - sumsq) - (total-sum)*(total-sum)/fr
		if score := sseL + sseR; score < best.score {
			best.score = score
			left := make([]int32, 0, k+1)
			for i := 0; i <= k; i++ {
				left = append(left, gs[i].code)
			}
			sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
			best.leftCodes = left
			found = true
		}
	}
	return best, found
}

// partition splits rows according to the candidate split.
func (b *treeBuilder) partition(rows []int, s candidateSplit) (left, right []int) {
	for _, r := range rows {
		goLeft := false
		if s.isCat {
			goLeft = containsCode(s.leftCodes, b.t.Code(r, s.attr))
		} else {
			goLeft = b.t.Float(r, s.attr) <= s.value
		}
		if goLeft {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}

// routeRows splits rows according to an existing node's split.
func (b *treeBuilder) routeRows(n *Node, rows []int) (left, right []int) {
	for _, r := range rows {
		if n.takeLeft(b.t, r) {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}
