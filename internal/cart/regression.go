package cart

import (
	"math"
	"slices"
	"sort"

	"repro/internal/floats"
)

// Split scorers for numeric targets (paper §3.3): each returns the split
// of one predictor minimizing the total child SSE of the target values ys
// (indexed by sample row), or nil and +Inf when the predictor admits none.

// numericSplitSSE scans the thresholds of a numeric predictor with prefix
// sums over list, the node's rows in the predictor's (value, row) order,
// in O(n).
func (b *treeBuilder) numericSplitSSE(list []int32, ys []float64, attr int) (*Node, float64) {
	xs := b.t.Col(attr).Floats
	n := len(list)
	// Comparisons, not bits: −0 and +0 differ in bits, but takeLeft
	// routes them alike, so no threshold separates them.
	if xs[list[0]] >= xs[list[n-1]] {
		return nil, math.Inf(1)
	}
	sum, sumsq := 0.0, 0.0
	total, totalsq := 0.0, 0.0
	for _, r := range list {
		total += ys[r]
		totalsq += ys[r] * ys[r]
	}
	bestK, bestScore := 0, math.Inf(1)
	for k := 1; k < n; k++ {
		r := list[k-1]
		sum += ys[r]
		sumsq += ys[r] * ys[r]
		if xs[r] >= xs[list[k]] {
			continue // not a realizable threshold
		}
		if k < b.cfg.MinLeafRows || n-k < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(k), float64(n-k)
		sseL := sumsq - sum*sum/fl
		sseR := (totalsq - sumsq) - (total-sum)*(total-sum)/fr
		if score := sseL + sseR; score < bestScore {
			bestK, bestScore = k, score
		}
	}
	if bestK == 0 {
		return nil, bestScore
	}
	return thresholdSplit(attr, xs[list[bestK-1]], xs[list[bestK]]), bestScore
}

// thresholdSplit is the numeric split between the adjacent sorted
// predictor values lo and hi. Thresholds live as float32 on the wire;
// rounding here keeps build-time and decode-time routing identical.
func thresholdSplit(attr int, lo, hi float64) *Node {
	return &Node{SplitAttr: attr, SplitValue: floats.F32((lo + hi) / 2)}
}

// categoricalSplitSSE orders the predictor's codes by mean target value and
// scans prefix partitions — the classic optimal-for-SSE ordering trick.
func (b *treeBuilder) categoricalSplitSSE(rows []int, ys []float64, attr int) (*Node, float64) {
	type group struct {
		code  int32
		sum   float64
		sumsq float64
		n     int
	}
	// The hint is bounded by the node's rows: a predictor's dictionary may
	// be far larger than the codes a node sees.
	groups := make(map[int32]*group, min(b.t.Col(attr).DomainSize(), len(rows)))
	for _, r := range rows {
		c := b.t.Code(r, attr)
		g := groups[c]
		if g == nil {
			g = &group{code: c}
			groups[c] = g
		}
		g.sum += ys[r]
		g.sumsq += ys[r] * ys[r]
		g.n++
	}
	if len(groups) < 2 {
		return nil, math.Inf(1)
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
	bestK, bestScore := -1, math.Inf(1)
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
		if score := sseL + sseR; score < bestScore {
			bestK, bestScore = k, score
		}
	}
	if bestK < 0 {
		return nil, bestScore
	}
	left := make([]int32, bestK+1)
	for i := range left {
		left[i] = gs[i].code
	}
	return setSplit(attr, left), bestScore
}

// setSplit is the categorical split routing the codes in left to the left
// child; it sorts left in place.
func setSplit(attr int, left []int32) *Node {
	slices.Sort(left)
	return &Node{SplitAttr: attr, SplitLeft: left, SplitIsCat: true}
}
