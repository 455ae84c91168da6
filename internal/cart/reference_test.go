package cart

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/floats"
	"repro/internal/par"
	"repro/internal/table"
)

// refBuilder is the builder the sorted lists and the dense sample ids
// replaced, kept as the reference Build must match: every node copies its
// rows' (predictor, target) pairs and sorts them, a numeric leaf sorts
// the target values, and classes and categorical groups are counted in
// maps keyed by code, read through Table.Code. Its comparators break ties
// by row, the order the sorted lists keep. It routes rows by takeLeft into
// fresh slices. From treeBuilder it takes only the configuration and the
// cost formulas: none of the scans Build runs.
type refBuilder struct {
	*treeBuilder
}

// takeLeft reports whether n's split sends row of t left.
func (n *Node) takeLeft(t *table.Table, row int) bool {
	if n.SplitIsCat {
		return containsCode(n.SplitLeft, t.Code(row, n.SplitAttr))
	}
	return t.Float(row, n.SplitAttr) <= n.SplitValue
}

// referenceBuild grows the tree Build grows for valid arguments.
func referenceBuild(s *Sample, target int, cands []int, tol float64, cm *CostModel, cfg Config) (*Model, float64) {
	b := refBuilder{newTreeBuilder(s, target, cands, tol, cm, cfg)}
	rows := make([]int, s.t.NumRows())
	fillRows(rows)
	root, cost := b.grow(rows, 0)
	if b.cfg.Prune == PruneAfter {
		fillRows(rows)
		root, cost = b.prune(root, rows)
	}
	return &Model{Target: target, TargetKind: b.kind, Root: root}, cost
}

// refPair is one row's predictor value x and target value or class y.
type refPair[Y any] struct {
	x   float64
	y   Y
	row int
}

// sortPairs orders ps by x, ties by row.
func sortPairs[Y any](ps []refPair[Y]) {
	slices.SortFunc(ps, func(a, b refPair[Y]) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
}

func (b refBuilder) leaf(rows []int) (*Node, int) {
	if b.kind != table.Numeric {
		counts := map[int32]int{}
		for _, r := range rows {
			counts[b.t.Code(r, b.target)]++
		}
		bestCode, bestCount := int32(0), -1
		for code, c := range counts {
			if c > bestCount || (c == bestCount && code < bestCode) {
				bestCode, bestCount = code, c
			}
		}
		chargeable := len(rows) - bestCount - int(b.tol*float64(len(rows)))
		return &Node{Leaf: true, CatValue: bestCode}, max(chargeable, 0)
	}
	ps := make([]refPair[struct{}], len(rows))
	for i, r := range rows {
		ps[i] = refPair[struct{}]{x: b.t.Float(r, b.target), row: r}
	}
	sortPairs(ps)
	bestLo, bestCount := 0, 1
	lo := 0
	for hi := range ps {
		for ps[hi].x-ps[lo].x > 2*b.tol {
			lo++
		}
		if hi-lo+1 > bestCount {
			bestCount = hi - lo + 1
			bestLo = lo
		}
	}
	pred := floats.F32((ps[bestLo].x + ps[bestLo+bestCount-1].x) / 2)
	return &Node{Leaf: true, NumValue: pred}, len(ps) - bestCount
}

func (b refBuilder) grow(rows []int, depth int) (*Node, float64) {
	leaf, outliers := b.leaf(rows)
	leafCost := b.leafCost(outliers)
	if outliers == 0 || depth >= maxDepth || len(rows) < 2*b.cfg.MinLeafRows {
		return leaf, leafCost
	}
	if b.cfg.Prune == PruneIntegrated && leafCost <= b.leafFloor() {
		return leaf, leafCost
	}
	n := b.bestSplit(rows)
	if n == nil {
		return leaf, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	if len(leftRows) < b.cfg.MinLeafRows || len(rightRows) < b.cfg.MinLeafRows {
		return leaf, leafCost
	}
	var leftCost, rightCost float64
	n.Left, leftCost = b.grow(leftRows, depth+1)
	n.Right, rightCost = b.grow(rightRows, depth+1)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost
	if b.cfg.Prune == PruneIntegrated && leafCost <= splitCost {
		return leaf, leafCost
	}
	return n, splitCost
}

func (b refBuilder) prune(n *Node, rows []int) (*Node, float64) {
	leaf, outliers := b.leaf(rows)
	leafCost := b.leafCost(outliers)
	if n.Leaf {
		return n, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	left, leftCost := b.prune(n.Left, leftRows)
	right, rightCost := b.prune(n.Right, rightRows)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost
	if leafCost <= splitCost {
		return leaf, leafCost
	}
	n.Left, n.Right = left, right
	return n, splitCost
}

// routeRows sends each row of rows to the side n's split takes it, in
// order.
func (b refBuilder) routeRows(n *Node, rows []int) (left, right []int) {
	for _, r := range rows {
		if n.takeLeft(b.t, r) {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}

// classIndex maps the target codes present in rows to dense indices, in
// order of first appearance.
func (b refBuilder) classIndex(rows []int) map[int32]int {
	idx := make(map[int32]int, min(b.t.Col(b.target).DomainSize(), len(rows)))
	for _, r := range rows {
		c := b.t.Code(r, b.target)
		if _, ok := idx[c]; !ok {
			idx[c] = len(idx)
		}
	}
	return idx
}

func (b refBuilder) bestSplit(rows []int) *Node {
	var ys []float64
	var classes []int
	nc := 0
	if b.kind == table.Numeric {
		ys = b.t.Col(b.target).Floats
	} else {
		idx := b.classIndex(rows)
		classes = make([]int, b.t.NumRows())
		for _, r := range rows {
			classes[r] = idx[b.t.Code(r, b.target)]
		}
		nc = len(idx)
	}
	var best *Node
	bestScore := math.Inf(1)
	for _, attr := range b.cands {
		var s *Node
		var score float64
		numeric := b.t.Attr(attr).Kind == table.Numeric
		switch {
		case b.kind == table.Numeric && numeric:
			s, score = b.numericSplitSSE(rows, ys, attr)
		case b.kind == table.Numeric:
			s, score = b.categoricalSplitSSE(rows, ys, attr)
		case numeric:
			s, score = b.numericSplitGini(rows, classes, nc, attr)
		default:
			s, score = b.categoricalSplitGini(rows, classes, nc, attr)
		}
		if s != nil && score < bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

func (b refBuilder) numericSplitSSE(rows []int, ys []float64, attr int) (*Node, float64) {
	n := len(rows)
	ps := make([]refPair[float64], n)
	for i, r := range rows {
		ps[i] = refPair[float64]{b.t.Float(r, attr), ys[r], r}
	}
	sortPairs(ps)
	if ps[0].x >= ps[n-1].x {
		return nil, math.Inf(1)
	}
	sum, sumsq := 0.0, 0.0
	total, totalsq := 0.0, 0.0
	for _, p := range ps {
		total += p.y
		totalsq += p.y * p.y
	}
	bestK, bestScore := 0, math.Inf(1)
	for k := 1; k < n; k++ {
		sum += ps[k-1].y
		sumsq += ps[k-1].y * ps[k-1].y
		if ps[k-1].x >= ps[k].x {
			continue
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
	return thresholdSplit(attr, ps[bestK-1].x, ps[bestK].x), bestScore
}

func (b refBuilder) numericSplitGini(rows []int, classes []int, nc, attr int) (*Node, float64) {
	n := len(rows)
	ps := make([]refPair[int], n)
	for i, r := range rows {
		ps[i] = refPair[int]{b.t.Float(r, attr), classes[r], r}
	}
	sortPairs(ps)
	if ps[0].x >= ps[n-1].x {
		return nil, math.Inf(1)
	}
	totals := make([]int, nc)
	for _, p := range ps {
		totals[p.y]++
	}
	leftCounts := make([]int, nc)
	rightCounts := append([]int(nil), totals...)
	bestK, bestScore := 0, math.Inf(1)
	for k := 1; k < n; k++ {
		leftCounts[ps[k-1].y]++
		rightCounts[ps[k-1].y]--
		if ps[k-1].x >= ps[k].x {
			continue
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
	return thresholdSplit(attr, ps[bestK-1].x, ps[bestK].x), bestScore
}

func (b refBuilder) categoricalSplitGini(rows []int, classes []int, nc, attr int) (*Node, float64) {
	type group struct {
		code   int32
		counts []int
		n      int
	}
	groups := map[int32]*group{}
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
	return refSetSplit(attr, left), bestScore
}

func (b refBuilder) categoricalSplitSSE(rows []int, ys []float64, attr int) (*Node, float64) {
	type group struct {
		code  int32
		sum   float64
		sumsq float64
		n     int
	}
	groups := map[int32]*group{}
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
	return refSetSplit(attr, left), bestScore
}

// refSetSplit is the categorical split routing the codes in left to the
// left child; it sorts left in place.
func refSetSplit(attr int, left []int32) *Node {
	slices.Sort(left)
	return &Node{SplitAttr: attr, SplitLeft: left, SplitIsCat: true}
}

// sameAsReference reports through t whether the tree and cost Build
// returned for these arguments encode and compare bit for bit like the
// reference builder's.
func sameAsReference(t *testing.T, m *Model, cost float64, s *Sample, target int, cands []int, tol float64, cm *CostModel, cfg Config) bool {
	t.Helper()
	ref, refCost := referenceBuild(s, target, cands, tol, cm, cfg)
	got, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(got, want) && math.Float64bits(cost) == math.Float64bits(refCost)
}

// defaultSampleBytes is core.Options' default SampleBytes, the budget of
// the sample every learn grows its trees on.
const defaultSampleBytes = 50 << 10

// TestPresortMatchesReference builds a tree for every target of four
// datasets, at 1,000 rows and at the default sample size, predicted from
// every other attribute under each prune mode, and requires Build's tree
// and cost to equal the per-node-sort reference's bit for bit.
func TestPresortMatchesReference(t *testing.T) {
	for _, ds := range []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	} {
		t.Run(ds.name, func(t *testing.T) {
			t.Parallel()
			sampled := ds.gen(8000, 2).SampleBytes(defaultSampleBytes, rand.New(rand.NewSource(3)))
			for _, tb := range []*table.Table{ds.gen(1000, 1), sampled} {
				s := NewSample(tb)
				tol := table.UniformTolerances(tb, 0.01, 0.02)
				cm := NewCostModel(tb)
				for target := 0; target < tb.NumCols(); target++ {
					cands := otherAttrs(tb, target)
					for _, mode := range []PruneMode{PruneIntegrated, PruneAfter, PruneNone} {
						cfg := Config{Prune: mode}
						m, cost, err := Build(context.Background(), s, target, cands, tol[target].Value, cm, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !sameAsReference(t, m, cost, s, target, cands, tol[target].Value, cm, cfg) {
							t.Errorf("%d rows, target %s, mode %d: tree or cost differs from the reference",
								tb.NumRows(), tb.Attr(target).Name, mode)
						}
					}
				}
			}
		})
	}
}

// TestSampleSharedByConcurrentBuilds grows a tree for every target of
// one Sample from four goroutines at once, as a selection's parallel
// rounds do, and requires each tree and cost to equal a serial build's:
// a build copies the lists it partitions and only reads the Sample.
func TestSampleSharedByConcurrentBuilds(t *testing.T) {
	tb := datagen.Census(1000, 1)
	s, cm := NewSample(tb), NewCostModel(tb)
	tol := table.UniformTolerances(tb, 0.01, 0.02)
	encode := func(ctx context.Context, target int) ([]byte, error) {
		m, cost, err := Build(ctx, s, target, otherAttrs(tb, target), tol[target].Value, cm, Config{})
		if err != nil {
			return nil, err
		}
		buf, err := m.AppendBinary(nil)
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(cost)), nil
	}
	want := make([][]byte, tb.NumCols())
	for target := range want {
		var err error
		if want[target], err = encode(context.Background(), target); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]byte, tb.NumCols())
	err := par.ForEach(context.Background(), len(got), 4, func(ctx context.Context, target int) error {
		var err error
		got[target], err = encode(ctx, target)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range want {
		if !bytes.Equal(got[target], want[target]) {
			t.Errorf("target %s: concurrent build differs from the serial one", tb.Attr(target).Name)
		}
	}
}
