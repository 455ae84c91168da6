package cart

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/floats"
	"repro/internal/table"
)

// PruneMode selects the pruning strategy, enabling the paper's ablation of
// integrated build+prune vs conventional build-then-prune (§3.3, §4.2).
type PruneMode int

const (
	// PruneIntegrated interleaves pruning with growth: a node is never
	// expanded when a lower bound on any subtree's cost already exceeds the
	// node's leaf cost, and grown subtrees costlier than a leaf collapse
	// immediately. This is SPARTAN's default.
	PruneIntegrated PruneMode = iota
	// PruneAfter grows the full tree (bounded by maxDepth/MinLeafRows),
	// then prunes bottom-up by storage cost — the conventional two-phase
	// approach the paper compares against.
	PruneAfter
	// PruneNone grows the full tree and keeps it; used in tests.
	PruneNone
)

// maxDepth bounds the tree depth.
const maxDepth = 24

// Config bounds tree growth.
type Config struct {
	// MinLeafRows is the minimum number of sample rows per leaf
	// (default 4).
	MinLeafRows int
	// Prune selects the pruning strategy (default PruneIntegrated).
	Prune PruneMode
	// FullRows is the row count of the full table the model will be
	// applied to; sample outlier counts are scaled by FullRows/sampleRows
	// when estimating storage costs. If zero, the sample is assumed to be
	// the full table.
	FullRows int
}

func (c Config) withDefaults(sampleRows int) Config {
	if c.MinLeafRows <= 0 {
		c.MinLeafRows = 4
	}
	if c.FullRows <= 0 {
		c.FullRows = sampleRows
	}
	return c
}

// Build constructs a CaRT predicting target from the candidate predictor
// attributes cands, trained on sample (typically a small random sample of
// the full table). tol is the resolved error tolerance of the target
// (absolute bound for numeric targets, misclassification probability for
// categorical ones); a negative or non-finite tol is refused. The returned
// model has no outliers yet; call (*Model).ComputeOutliers against the
// full table before measuring PredCost precisely. Build itself returns a
// cost estimate based on sample-scaled outlier counts.
//
// cands must not contain target; an empty cands yields an error (the
// selector assigns infinite prediction cost to such attributes). Growth
// checks ctx at every node expansion, so a cancelled context abandons the
// tree within one split evaluation and returns the (wrapped) context
// error.
//
// One build allocates its row buffer and the split search's scratch once,
// sized by the sample, not once per node: grow hands each child a
// disjoint sub-slice of its node's rows (see routeRows), so the whole
// tree is grown in one []int.
func Build(ctx context.Context, sample *table.Table, target int, cands []int, tol float64,
	cm *CostModel, cfg Config) (*Model, float64, error) {
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("cart: no candidate predictors for attribute %d", target)
	}
	for _, c := range cands {
		if c == target {
			return nil, 0, fmt.Errorf("cart: target %d appears in its own predictor set", target)
		}
		if c < 0 || c >= sample.NumCols() {
			return nil, 0, fmt.Errorf("cart: candidate %d out of range", c)
		}
	}
	if sample.NumRows() == 0 {
		return nil, 0, fmt.Errorf("cart: empty sample")
	}
	if tol < 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
		return nil, 0, fmt.Errorf("cart: attribute %d has tolerance %g, want a finite value >= 0", target, tol)
	}
	n := sample.NumRows()
	cfg = cfg.withDefaults(n)
	b := &treeBuilder{
		t:      sample,
		target: target,
		kind:   sample.Attr(target).Kind,
		cands:  append([]int(nil), cands...),
		tol:    tol,
		cm:     cm,
		cfg:    cfg,
		scale:  float64(cfg.FullRows) / float64(n),
		spare:  make([]int, n),
	}
	if b.kind == table.Numeric {
		b.ys = make([]float64, n)
		b.vals = make([]float64, n)
		b.ssePairs = make([]ssePair, n)
	} else {
		b.classes = make([]int, n)
		b.giniPairs = make([]giniPair, n)
	}
	sort.Ints(b.cands)
	rows := make([]int, n)
	fillRows(rows)
	root, cost := b.grow(ctx, rows, 0)
	if cfg.Prune == PruneAfter && b.ctxErr == nil {
		// grow left rows permuted; refilling gives prune's nodes the row
		// order grow's nodes saw.
		fillRows(rows)
		root, cost = b.prune(ctx, root, rows)
	}
	if b.ctxErr != nil {
		return nil, 0, fmt.Errorf("cart: build cancelled: %w", b.ctxErr)
	}
	return &Model{Target: target, TargetKind: b.kind, Root: root}, cost, nil
}

// fillRows sets rows to 0…len(rows)−1, the sample order.
func fillRows(rows []int) {
	for i := range rows {
		rows[i] = i
	}
}

// treeBuilder grows one tree. Build owns the row buffer every node's rows
// are a sub-slice of; routeRows partitions a node's sub-slice in place, so
// the children get disjoint sub-slices and a node's rows are permuted once
// its children have been grown (prune therefore refills the buffer before
// routing it again). The scratch slices below hold the sample's rows at
// most; each is used by one call at a time and is dead before grow or
// prune recurses, so the recursion shares them.
//
// Row order reaches the output: the scorers' sorts keep tied predictor
// values in an order that depends on it, and their prefix sums round in
// that order. routeRows is stable, so every node sees its rows in the
// order copying them into fresh slices would give, and the scorers sort
// with slices.SortFunc, the same pdqsort as sort.Slice (the same
// comparisons and swaps), so the trees match a per-node-copy builder's
// bit for bit (TestBuildDigest).
type treeBuilder struct {
	t      *table.Table
	target int
	kind   table.Kind // the target's kind
	cands  []int
	tol    float64
	cm     *CostModel
	cfg    Config
	scale  float64 // full-table rows per sample row

	spare     []int      // routeRows' right rows
	ys        []float64  // bestSplit's numeric target values
	classes   []int      // bestSplit's dense class indices
	vals      []float64  // leaf's sorted numeric target values
	ssePairs  []ssePair  // numericSplitSSE's (predictor, target) pairs
	giniPairs []giniPair // numericSplitGini's (predictor, class) pairs

	// ctxErr records the first cancellation observed during growth. grow
	// and prune return a placeholder once it is set, so the whole tree
	// unwinds without threading an error through every level; Build
	// converts it into the returned error.
	ctxErr error
}

// cancelled reports (and latches) whether ctx is done. It is checked at
// every node expansion, bounding the work after a cancel to one split
// evaluation.
func (b *treeBuilder) cancelled(ctx context.Context) bool {
	if b.ctxErr != nil {
		return true
	}
	if err := ctx.Err(); err != nil {
		b.ctxErr = err
		return true
	}
	return false
}

// leafFloor is the cheapest any expanded subtree could cost: one internal
// node plus two leaves with zero outliers. This realizes the paper's
// "lower bound on the cost of a yet-to-be-expanded subtree" that lets
// pruning run during growth.
func (b *treeBuilder) leafFloor() float64 {
	minInternal := math.Inf(1)
	for _, c := range b.cands {
		if v := b.cm.InternalBits(c); v < minInternal {
			minInternal = v
		}
	}
	return minInternal + 2*b.cm.LeafBits(b.target)
}

// outlierCost converts a sample outlier count into estimated full-table
// outlier bits.
func (b *treeBuilder) outlierCost(sampleOutliers int) float64 {
	return b.scale * float64(sampleOutliers) * b.cm.OutlierBits(b.target)
}

// leafCost is the estimated storage cost of a leaf that stores
// sampleOutliers of its sample rows as outliers.
func (b *treeBuilder) leafCost(sampleOutliers int) float64 {
	return b.cm.LeafBits(b.target) + b.outlierCost(sampleOutliers)
}

// leaf returns the leaf that best predicts the target over rows, with
// the number of those rows it would store as outliers. grow and prune
// see the target's kind only through it.
//
// A numeric leaf predicting p satisfies the tolerance for every row whose
// value lies in [p-tol, p+tol], so the best constant is the centre of the
// length-2·tol window covering the most rows (a sliding window over the
// sorted values); the rows outside it are outliers.
//
// A categorical leaf predicts its majority class. The global budget (tol·N
// rows may stay wrong unstored) is distributed pro rata during
// construction: a leaf of k rows is granted ⌊tol·k⌋ free mismatches, so
// per-leaf cost estimates sum to a consistent global estimate, and only
// the mismatches beyond that allowance count as outliers.
//
// rows is never empty: Build refuses an empty sample, and a split is kept
// only when each side has MinLeafRows ≥ 1 rows.
func (b *treeBuilder) leaf(rows []int) (*Node, int) {
	if b.kind == table.Numeric {
		vals := b.vals[:len(rows)]
		for i, r := range rows {
			vals[i] = b.t.Float(r, b.target)
		}
		sort.Float64s(vals)
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
		// Predictions are rounded through float32 (their wire format) here,
		// so the outlier scan sees exactly the prediction the decompressor
		// will compute. Rows the rounding pushes past the bound simply
		// become outliers.
		pred := floats.F32((vals[bestLo] + vals[bestLo+bestCount-1]) / 2)
		return &Node{Leaf: true, NumValue: pred}, len(vals) - bestCount
	}
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

// grow grows (and under PruneIntegrated, prunes) a subtree for the given
// sample rows, returning the subtree and its estimated storage cost in
// bits.
func (b *treeBuilder) grow(ctx context.Context, rows []int, depth int) (*Node, float64) {
	if b.cancelled(ctx) {
		return &Node{Leaf: true}, 0
	}
	leaf, outliers := b.leaf(rows)
	leafCost := b.leafCost(outliers)

	// Stop conditions: acceptable leaf (paper's optimization 2), depth or
	// size bounds.
	if outliers == 0 || depth >= maxDepth || len(rows) < 2*b.cfg.MinLeafRows {
		return leaf, leafCost
	}
	// Integrated pruning: if no expansion can beat the leaf, stop now.
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
	n.Left, leftCost = b.grow(ctx, leftRows, depth+1)
	n.Right, rightCost = b.grow(ctx, rightRows, depth+1)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost

	if b.cfg.Prune == PruneIntegrated && leafCost <= splitCost {
		return leaf, leafCost
	}
	return n, splitCost
}

// prune is the post-hoc pruning pass for PruneAfter mode: bottom-up,
// replace any subtree whose leaf-equivalent costs no more.
func (b *treeBuilder) prune(ctx context.Context, n *Node, rows []int) (*Node, float64) {
	if b.cancelled(ctx) {
		return n, 0
	}
	leaf, outliers := b.leaf(rows)
	leafCost := b.leafCost(outliers)
	if n.Leaf {
		return n, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	left, leftCost := b.prune(ctx, n.Left, leftRows)
	right, rightCost := b.prune(ctx, n.Right, rightRows)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost
	if leafCost <= splitCost {
		return leaf, leafCost
	}
	n.Left, n.Right = left, right
	return n, splitCost
}

// bestSplit scores every candidate predictor over rows and returns the
// lowest-scoring split as an unlinked internal node, or nil when no
// predictor admits a valid split (all predictor values constant, or no
// threshold leaves MinLeafRows on each side). A numeric target's splits
// are scored by total child SSE (the classic CART criterion, an efficient
// proxy for narrowing leaf windows), a categorical target's by Gini
// impurity; storage-cost pruning then decides whether a split is kept.
func (b *treeBuilder) bestSplit(rows []int) *Node {
	var y []float64
	var classes []int
	nc := 0
	if b.kind == table.Numeric {
		y = b.ys[:len(rows)]
		for i, r := range rows {
			y[i] = b.t.Float(r, b.target)
		}
	} else {
		idx := b.classIndex(rows)
		classes = b.classes[:len(rows)]
		for i, r := range rows {
			classes[i] = idx[b.t.Code(r, b.target)]
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
			s, score = b.numericSplitSSE(rows, y, attr)
		case b.kind == table.Numeric:
			s, score = b.categoricalSplitSSE(rows, y, attr)
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

// routeRows partitions rows in place by a node's split and returns the
// two halves: left = rows[:k], the rows the split sends left, and right =
// rows[k:]. The partition is stable, so each half keeps the rows' order,
// the order appending them to fresh slices would give: left rows are
// compacted to the front as they are met, right rows wait in b.spare.
func (b *treeBuilder) routeRows(n *Node, rows []int) (left, right []int) {
	spare := b.spare[:0]
	k := 0
	for _, r := range rows {
		if n.takeLeft(b.t, r) {
			rows[k] = r
			k++
		} else {
			spare = append(spare, r)
		}
	}
	copy(rows[k:], spare)
	return rows[:k:k], rows[k:]
}
