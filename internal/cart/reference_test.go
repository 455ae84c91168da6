package cart

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/floats"
	"repro/internal/par"
	"repro/internal/table"
)

// refBuilder is the builder the sorted lists replaced, kept as the
// reference Build must match: every node copies its rows' (predictor,
// target) pairs and sorts them, and a numeric leaf sorts the target
// values. Its comparators break ties by row, the order the sorted lists
// keep. It shares the categorical scorers, classIndex and routeRows with
// treeBuilder, which read rows in node order and never a sorted list.
type refBuilder struct {
	*treeBuilder
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
		return b.treeBuilder.leaf(rows, 0)
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

func (b refBuilder) bestSplit(rows []int) *Node {
	var ys []float64
	var classes []int
	nc := 0
	if b.kind == table.Numeric {
		ys = b.t.Col(b.target).Floats
	} else {
		idx := b.classIndex(rows)
		classes = b.classes
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

// sameAsReference reports through t whether the tree and cost Build
// returned for these arguments encode and compare bit for bit like the
// reference builder's.
func sameAsReference(t *testing.T, m *Model, cost float64, s *Sample, target int, cands []int, tol float64, cm *CostModel, cfg Config) bool {
	t.Helper()
	ref, refCost := referenceBuild(s, target, cands, tol, cm, cfg)
	var got, want bytes.Buffer
	if err := m.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Encode(&want); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(got.Bytes(), want.Bytes()) && math.Float64bits(cost) == math.Float64bits(refCost)
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
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint64(buf.Bytes(), math.Float64bits(cost)), nil
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
