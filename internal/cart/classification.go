package cart

import (
	"math"
	"sort"

	"repro/internal/floats"
)

// Split scorers for categorical targets (paper §3.3): each returns the
// split of one predictor minimizing the weighted Gini impurity of the
// children, or nil and +Inf when the predictor admits none. classes[r]
// is the dense class index (see classIndex) of sample row r, and nc the
// number of classes among the node's rows.

// classIndex maps the target codes present in rows to dense indices, in
// order of first appearance.
func (b *treeBuilder) classIndex(rows []int) map[int32]int {
	idx := make(map[int32]int, min(b.t.Col(b.target).DomainSize(), len(rows)))
	for _, r := range rows {
		c := b.t.Code(r, b.target)
		if _, ok := idx[c]; !ok {
			idx[c] = len(idx)
		}
	}
	return idx
}

func giniFromCounts(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

// numericSplitGini scans the thresholds of a numeric predictor keeping
// running class counts over list, the node's rows in the predictor's
// (value, row) order.
func (b *treeBuilder) numericSplitGini(list []int32, classes []int, nc, attr int) (*Node, float64) {
	xs := b.t.Col(attr).Floats
	n := len(list)
	// Comparisons, not bits: −0 and +0 differ in bits, but takeLeft
	// routes them alike, so no threshold separates them.
	if xs[list[0]] >= xs[list[n-1]] {
		return nil, math.Inf(1)
	}
	totals := make([]int, nc)
	for _, r := range list {
		totals[classes[r]]++
	}
	leftCounts := make([]int, nc)
	rightCounts := append([]int(nil), totals...)
	bestK, bestScore := 0, math.Inf(1)
	for k := 1; k < n; k++ {
		r := list[k-1]
		leftCounts[classes[r]]++
		rightCounts[classes[r]]--
		if xs[r] >= xs[list[k]] {
			continue // not a realizable threshold
		}
		if k < b.cfg.MinLeafRows || n-k < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(k), float64(n-k)
		score := (fl*giniFromCounts(leftCounts, k) + fr*giniFromCounts(rightCounts, n-k)) / float64(n)
		if score < bestScore {
			bestK, bestScore = k, score
		}
	}
	if bestK == 0 {
		return nil, bestScore
	}
	return thresholdSplit(attr, xs[list[bestK-1]], xs[list[bestK]]), bestScore
}

// categoricalSplitGini orders predictor codes by the proportion of the
// parent's majority class and scans prefix partitions (exact for two
// classes, a strong heuristic for more).
func (b *treeBuilder) categoricalSplitGini(rows []int, classes []int, nc, attr int) (*Node, float64) {
	type group struct {
		code   int32
		counts []int
		n      int
	}
	// The hint is bounded by the node's rows: a predictor's dictionary may
	// be far larger than the codes a node sees.
	groups := make(map[int32]*group, min(b.t.Col(attr).DomainSize(), len(rows)))
	for _, r := range rows {
		c := b.t.Code(r, attr)
		g := groups[c]
		if g == nil {
			g = &group{code: c, counts: make([]int, nc)}
			groups[c] = g
		}
		g.counts[classes[r]]++
		g.n++
	}
	if len(groups) < 2 {
		return nil, math.Inf(1)
	}
	totals := make([]int, nc)
	n := 0
	for _, g := range groups {
		for cls, c := range g.counts {
			totals[cls] += c
		}
		n += g.n
	}
	majorityClass := 0
	for cls := 1; cls < nc; cls++ {
		if totals[cls] > totals[majorityClass] {
			majorityClass = cls
		}
	}
	gs := make([]*group, 0, len(groups))
	for _, g := range groups {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool {
		pi := float64(gs[i].counts[majorityClass]) / float64(gs[i].n)
		pj := float64(gs[j].counts[majorityClass]) / float64(gs[j].n)
		if !floats.SameBits(pi, pj) {
			return pi < pj
		}
		return gs[i].code < gs[j].code
	})
	bestK, bestScore := -1, math.Inf(1)
	leftCounts := make([]int, nc)
	rightCounts := append([]int(nil), totals...)
	cnt := 0
	for k := 0; k < len(gs)-1; k++ {
		for cls, c := range gs[k].counts {
			leftCounts[cls] += c
			rightCounts[cls] -= c
		}
		cnt += gs[k].n
		if cnt < b.cfg.MinLeafRows || n-cnt < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(cnt), float64(n-cnt)
		score := (fl*giniFromCounts(leftCounts, cnt) + fr*giniFromCounts(rightCounts, n-cnt)) / float64(n)
		if score < bestScore {
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
