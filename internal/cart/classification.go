package cart

import "math"

// Split scorers for categorical targets (paper §3.3): each returns the
// split of one predictor minimizing the weighted Gini impurity of the
// children, or nil and +Inf when the predictor admits none. They read the
// node classes classIndex last set: b.classes[r] of sample row r, and the
// counts in b.classCounts.

// classIndex numbers the target classes present in rows densely, in
// order of first appearance in rows: it sets b.classes[r] for each row,
// and b.classIds[k] and b.classCounts[k] for each class k, and returns the
// number of classes. The leaf and the Gini scorers scan classes in this
// order, which their ties and float sums depend on.
func (b *treeBuilder) classIndex(rows []int) int {
	ids, classOf := b.s.ids[b.target], b.classOf
	classIds, counts := b.classIds[:0], b.classCounts[:0]
	for _, r := range rows {
		id := ids[r]
		k := classOf[id]
		if k == 0 {
			classIds = append(classIds, id)
			counts = append(counts, 0)
			k = int32(len(classIds))
			classOf[id] = k
		}
		b.classes[r] = int(k - 1)
		counts[k-1]++
	}
	for _, id := range classIds {
		classOf[id] = 0
	}
	b.classIds, b.classCounts = classIds, counts
	return len(classIds)
}

// scanCounts returns a Gini scan's starting class counts over the node's
// classes: none on the left, all on the right.
func (b *treeBuilder) scanCounts() (left, right []int) {
	nc := len(b.classCounts)
	left, right = b.leftCounts[:nc], b.rightCounts[:nc]
	clear(left)
	copy(right, b.classCounts)
	return left, right
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
func (b *treeBuilder) numericSplitGini(list []int32, attr int) (*Node, float64) {
	xs, classes := b.t.Col(attr).Floats, b.classes
	n := len(list)
	// Comparisons, not bits: −0 and +0 differ in bits, but routeRows
	// routes them alike, so no threshold separates them.
	if xs[list[0]] >= xs[list[n-1]] {
		return nil, math.Inf(1)
	}
	leftCounts, rightCounts := b.scanCounts()
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
// classes, a strong heuristic for more). The groups keep their class
// counts in b.groupCounts, one per node class each.
func (b *treeBuilder) categoricalSplitGini(rows []int, attr int) (*Node, float64) {
	ids, codes, nc := b.s.ids[attr], b.s.codes[attr], len(b.classCounts)
	b.groupCounts = b.groupCounts[:0]
	groups := b.groups[:0]
	for _, r := range rows {
		id := ids[r]
		g := b.slot[id]
		if g == 0 {
			groups = append(groups, idGroup{id: id, code: codes[id], off: len(b.groupCounts)})
			b.groupCounts = append(b.groupCounts, make([]int, nc)...)
			g = int32(len(groups))
			b.slot[id] = g
		}
		b.groupCounts[groups[g-1].off+b.classes[r]]++
		groups[g-1].n++
	}
	b.groups = groups
	b.clearSlots()
	if len(groups) < 2 {
		return nil, math.Inf(1)
	}
	totals := b.classCounts
	n := len(rows)
	majorityClass := 0
	for cls := 1; cls < nc; cls++ {
		if totals[cls] > totals[majorityClass] {
			majorityClass = cls
		}
	}
	for i := range groups {
		g := &groups[i]
		g.key = float64(b.groupCounts[g.off+majorityClass]) / float64(g.n)
	}
	sortGroups(groups)
	bestK, bestScore := -1, math.Inf(1)
	leftCounts, rightCounts := b.scanCounts()
	cnt := 0
	for k := 0; k < len(groups)-1; k++ {
		for cls, c := range b.groupCounts[groups[k].off : groups[k].off+nc] {
			leftCounts[cls] += c
			rightCounts[cls] -= c
		}
		cnt += groups[k].n
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
	return setSplit(attr, groups[:bestK+1]), bestScore
}
