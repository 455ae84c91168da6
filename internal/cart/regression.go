package cart

import (
	"cmp"
	"math"
	"slices"

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
	// Comparisons, not bits: −0 and +0 differ in bits, but routeRows
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
	ids, codes := b.s.ids[attr], b.s.codes[attr]
	groups := b.groups[:0]
	for _, r := range rows {
		id := ids[r]
		g := b.slot[id]
		if g == 0 {
			groups = append(groups, idGroup{id: id, code: codes[id]})
			g = int32(len(groups))
			b.slot[id] = g
		}
		gr := &groups[g-1]
		gr.sum += ys[r]
		gr.sumsq += ys[r] * ys[r]
		gr.n++
	}
	b.groups = groups
	b.clearSlots()
	if len(groups) < 2 {
		return nil, math.Inf(1)
	}
	for i := range groups {
		groups[i].key = groups[i].sum / float64(groups[i].n)
	}
	sortGroups(groups)
	total, totalsq, n := 0.0, 0.0, 0
	for _, g := range groups {
		total += g.sum
		totalsq += g.sumsq
		n += g.n
	}
	bestK, bestScore := -1, math.Inf(1)
	sum, sumsq, cnt := 0.0, 0.0, 0
	for k := 0; k < len(groups)-1; k++ {
		sum += groups[k].sum
		sumsq += groups[k].sumsq
		cnt += groups[k].n
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
	return setSplit(attr, groups[:bestK+1]), bestScore
}

// idGroup is a categorical scorer's group: a node's rows of one predictor
// id.
type idGroup struct {
	id, code   int32
	n          int     // rows
	sum, sumsq float64 // the SSE scorer's target sums
	off        int     // the Gini scorer's class counts at b.groupCounts[off:off+nc]
	key        float64 // the order of the prefix scan
}

// clearSlots forgets the ids of b.groups, so the next scorer meets every
// id afresh.
func (b *treeBuilder) clearSlots() {
	for _, g := range b.groups {
		b.slot[g.id] = 0
	}
}

// sortGroups orders groups by key, ties by code. Keys are compared by bits
// first, as refBuilder's scorers compare them, so keys that differ only
// in the sign of zero compare equal without a code tiebreak.
func sortGroups(groups []idGroup) {
	slices.SortFunc(groups, func(a, b idGroup) int {
		switch {
		case floats.SameBits(a.key, b.key):
			return cmp.Compare(a.code, b.code)
		case a.key < b.key:
			return -1
		case b.key < a.key:
			return 1
		}
		return 0
	})
}

// setSplit is the categorical split routing the codes of left to the left
// child.
func setSplit(attr int, left []idGroup) *Node {
	codes := make([]int32, len(left))
	for i, g := range left {
		codes[i] = g.code
	}
	slices.Sort(codes)
	return &Node{SplitAttr: attr, SplitLeft: codes, SplitIsCat: true}
}
