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
// attributes cands, trained on s (typically a small random sample of the
// full table, sorted once by NewSample). tol is the resolved error
// tolerance of the target (absolute bound for numeric targets,
// misclassification probability for categorical ones); a negative or
// non-finite tol is refused. The returned model is the tree alone;
// (*Model).ComputeOutliers finds a table's outliers against it. Build
// itself returns a cost estimate based on sample-scaled outlier counts.
//
// cands must not contain target; an empty cands yields an error (the
// selector assigns infinite prediction cost to such attributes). Growth
// checks ctx at every node expansion, so a cancelled context abandons the
// tree within one split evaluation and returns the (wrapped) context
// error.
//
// One build allocates its buffers once, sized by the sample, not once per
// node: grow hands each child a disjoint sub-slice of its node's rows (see
// routeRows) and the matching range of every sorted list (see partition),
// so the whole tree is grown in one []int and one []int32.
func Build(ctx context.Context, s *Sample, target int, cands []int, tol float64,
	cm *CostModel, cfg Config) (*Model, float64, error) {
	sample := s.t
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
	if sample.NumRows() > math.MaxInt32 {
		return nil, 0, fmt.Errorf("cart: sample of %d rows exceeds %d", sample.NumRows(), math.MaxInt32)
	}
	if tol < 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
		return nil, 0, fmt.Errorf("cart: attribute %d has tolerance %g, want a finite value >= 0", target, tol)
	}
	b := newTreeBuilder(s, target, cands, tol, cm, cfg)
	rows := make([]int, sample.NumRows())
	fillRows(rows)
	root, cost := b.grow(ctx, rows, 0, 0)
	if b.cfg.Prune == PruneAfter && b.ctxErr == nil {
		// grow left rows and lists permuted; refilling gives prune's nodes
		// the rows and sorted target values grow's nodes saw.
		fillRows(rows)
		if l := b.lists[target]; l != nil {
			copy(l, s.sorted[target])
		}
		root, cost = b.prune(ctx, root, rows, 0)
	}
	if b.ctxErr != nil {
		return nil, 0, fmt.Errorf("cart: build cancelled: %w", b.ctxErr)
	}
	return &Model{Target: target, TargetKind: b.kind, Root: root}, cost, nil
}

// newTreeBuilder sets up the growth of one tree over s: its scratch, and
// a copy of the sorted list of each numeric candidate and a numeric
// target in one buffer. The scratch indexed by dense ids is sized by the
// ids the target and the categorical candidates hold in the sample.
func newTreeBuilder(s *Sample, target int, cands []int, tol float64, cm *CostModel, cfg Config) *treeBuilder {
	sample := s.t
	n := sample.NumRows()
	cfg = cfg.withDefaults(n)
	b := &treeBuilder{
		s:         s,
		t:         sample,
		target:    target,
		kind:      sample.Attr(target).Kind,
		cands:     append([]int(nil), cands...),
		tol:       tol,
		cm:        cm,
		cfg:       cfg,
		scale:     float64(cfg.FullRows) / float64(n),
		spare:     make([]int, n),
		lists:     make([][]int32, sample.NumCols()),
		left:      make([]uint8, n),
		spareList: make([]int32, n),
	}
	if b.kind == table.Categorical {
		nt := len(s.codes[target])
		b.classes = make([]int, n)
		b.classOf = make([]int32, nt)
		b.classIds = make([]int32, 0, nt)
		b.classCounts = make([]int, 0, nt)
		b.leftCounts = make([]int, nt)
		b.rightCounts = make([]int, nt)
	}
	sort.Ints(b.cands)
	listed := make([]int, 0, len(b.cands)+1)
	maxIds := 0
	for _, a := range b.cands {
		if s.sorted[a] != nil {
			listed = append(listed, a)
		}
		maxIds = max(maxIds, len(s.codes[a]))
	}
	b.slot = make([]int32, maxIds)
	b.side = make([]int8, maxIds)
	if s.sorted[target] != nil {
		listed = append(listed, target)
	}
	buf := make([]int32, len(listed)*n)
	for i, a := range listed {
		b.lists[a] = buf[i*n : (i+1)*n : (i+1)*n]
		copy(b.lists[a], s.sorted[a])
	}
	return b
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
// routing it again).
//
// Each numeric candidate and a numeric target also has a sorted list: the
// sample's rows in (value, row) order, copied from the Sample. A node
// whose rows start at offset lo of the row buffer owns the range
// [lo, lo+len(rows)) of every list, holding its rows in that order;
// partition splits the range stably between the children, so they stay
// sorted without a sort. The numeric scorers and the numeric leaf scan
// these ranges; the categorical scorers and classIndex read rows in node
// order, through the sample's dense ids.
//
// Only one ordering reaches the output: the order of tied values inside a
// node. The SSE prefix sums round in it, and a leaf window whose ends are
// −0 and +0 predicts the sign of their mean. The lists fix it canonically
// as row order, which TestPresortMatchesReference checks against a
// per-node sort with ties broken by row.
//
// The scratch slices below hold the sample's rows or a column's dense ids
// at most (groupCounts holds nc counts per group); each is used by one
// node at a time and is dead before grow or prune recurses, so the
// recursion shares them.
type treeBuilder struct {
	s      *Sample
	t      *table.Table
	target int
	kind   table.Kind // the target's kind
	cands  []int
	tol    float64
	cm     *CostModel
	cfg    Config
	scale  float64 // full-table rows per sample row

	lists     [][]int32 // by attribute: the sorted list of a numeric candidate or target, else nil
	spare     []int     // routeRows' right rows
	left      []uint8   // by sample row: routeRows' side mark, 1 for left, which partition reads
	spareList []int32   // partition's right rows
	side      []int8    // by predictor id: routeRows' side of a categorical split, 1 left, 2 right, 0 until met

	// classIndex's node classes of a categorical target.
	classes     []int   // by sample row: the row's node class
	classOf     []int32 // by target id: its node class + 1, 0 outside the node
	classIds    []int32 // by node class: its target id
	classCounts []int   // by node class: its rows
	leftCounts  []int   // by node class: a Gini scan's left rows (see scanCounts)
	rightCounts []int   // by node class: a Gini scan's right rows

	// The categorical scorers' groups of a node's rows by predictor id.
	slot        []int32   // by predictor id: its group's index + 1, 0 until met
	groups      []idGroup // in first-appearance order until sorted
	groupCounts []int     // the Gini scorer's class counts, nc per group

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

// leaf returns the leaf that best predicts the target over the node whose
// rows start at lo, with the number of those rows it would store as
// outliers. grow and prune see the target's kind only through it.
//
// A numeric leaf predicting p satisfies the tolerance for every row whose
// value lies in [p-tol, p+tol], so the best constant is the centre of the
// length-2·tol window covering the most rows (a sliding window over the
// node's range of the target's sorted list); the rows outside it are
// outliers.
//
// A categorical leaf predicts its majority class. The global budget (tol·N
// rows may stay wrong unstored) is distributed pro rata during
// construction: a leaf of k rows is granted ⌊tol·k⌋ free mismatches, so
// per-leaf cost estimates sum to a consistent global estimate, and only
// the mismatches beyond that allowance count as outliers.
//
// rows is never empty: Build refuses an empty sample, and a split is kept
// only when each side has MinLeafRows ≥ 1 rows.
func (b *treeBuilder) leaf(rows []int, lo int) (*Node, int) {
	if b.kind == table.Numeric {
		ys := b.t.Col(b.target).Floats
		list := b.lists[b.target][lo : lo+len(rows)]
		bestLo, bestCount := 0, 1
		first := 0
		for last, r := range list {
			for ys[r]-ys[list[first]] > 2*b.tol {
				first++
			}
			if last-first+1 > bestCount {
				bestCount = last - first + 1
				bestLo = first
			}
		}
		// Predictions are rounded through float32 (their wire format) here,
		// so the outlier scan sees exactly the prediction the decompressor
		// will compute. Rows the rounding pushes past the bound simply
		// become outliers.
		pred := floats.F32((ys[list[bestLo]] + ys[list[bestLo+bestCount-1]]) / 2)
		return &Node{Leaf: true, NumValue: pred}, len(list) - bestCount
	}
	nc := b.classIndex(rows)
	codes := b.s.codes[b.target]
	best := 0
	for k := 1; k < nc; k++ {
		c, bc := b.classCounts[k], b.classCounts[best]
		if c > bc || (c == bc && codes[b.classIds[k]] < codes[b.classIds[best]]) {
			best = k
		}
	}
	chargeable := len(rows) - b.classCounts[best] - int(b.tol*float64(len(rows)))
	return &Node{Leaf: true, CatValue: codes[b.classIds[best]]}, max(chargeable, 0)
}

// grow grows (and under PruneIntegrated, prunes) a subtree for the given
// sample rows, which start at offset lo of the row buffer, returning the
// subtree and its estimated storage cost in bits.
func (b *treeBuilder) grow(ctx context.Context, rows []int, lo, depth int) (*Node, float64) {
	if b.cancelled(ctx) {
		return &Node{Leaf: true}, 0
	}
	leaf, outliers := b.leaf(rows, lo)
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

	n := b.bestSplit(rows, lo)
	if n == nil {
		return leaf, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	if len(leftRows) < b.cfg.MinLeafRows || len(rightRows) < b.cfg.MinLeafRows {
		return leaf, leafCost
	}
	b.partition(b.lists, lo, len(rows))
	var leftCost, rightCost float64
	n.Left, leftCost = b.grow(ctx, leftRows, lo, depth+1)
	n.Right, rightCost = b.grow(ctx, rightRows, lo+len(leftRows), depth+1)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost

	if b.cfg.Prune == PruneIntegrated && leafCost <= splitCost {
		return leaf, leafCost
	}
	return n, splitCost
}

// prune is the post-hoc pruning pass for PruneAfter mode: bottom-up,
// replace any subtree whose leaf-equivalent costs no more. Only leaf reads
// a sorted list here, so prune keeps only the target's partitioned.
func (b *treeBuilder) prune(ctx context.Context, n *Node, rows []int, lo int) (*Node, float64) {
	if b.cancelled(ctx) {
		return n, 0
	}
	leaf, outliers := b.leaf(rows, lo)
	leafCost := b.leafCost(outliers)
	if n.Leaf {
		return n, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	b.partition(b.lists[b.target:b.target+1], lo, len(rows))
	left, leftCost := b.prune(ctx, n.Left, leftRows, lo)
	right, rightCost := b.prune(ctx, n.Right, rightRows, lo+len(leftRows))
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost
	if leafCost <= splitCost {
		return leaf, leafCost
	}
	n.Left, n.Right = left, right
	return n, splitCost
}

// bestSplit scores every candidate predictor over the node whose rows
// start at lo and returns the lowest-scoring split as an unlinked internal
// node, or nil when no predictor admits a valid split (all predictor
// values constant, or no threshold leaves MinLeafRows on each side). A
// numeric target's splits are scored by total child SSE (the classic CART
// criterion, an efficient proxy for narrowing leaf windows), a categorical
// target's by Gini impurity; storage-cost pruning then decides whether a
// split is kept. A categorical target's classes are the ones leaf last
// numbered: grow calls it on the same rows first.
func (b *treeBuilder) bestSplit(rows []int, lo int) *Node {
	var ys []float64
	if b.kind == table.Numeric {
		ys = b.t.Col(b.target).Floats
	}
	var best *Node
	bestScore := math.Inf(1)
	for _, attr := range b.cands {
		var s *Node
		var score float64
		list := b.lists[attr]
		switch {
		case b.kind == table.Numeric && list != nil:
			s, score = b.numericSplitSSE(list[lo:lo+len(rows)], ys, attr)
		case b.kind == table.Numeric:
			s, score = b.categoricalSplitSSE(rows, ys, attr)
		case list != nil:
			s, score = b.numericSplitGini(list[lo:lo+len(rows)], attr)
		default:
			s, score = b.categoricalSplitGini(rows, attr)
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
// Each row's side is also marked in b.left, for partition. A row is
// written to both sides, and the next row of the side it is not on
// overwrites it, so the loops do not branch on the side.
//
// A numeric split sends a row left when its value is at most SplitValue.
// A categorical split looks a predictor id up in SplitLeft once, when a
// row first shows it, and routes the id's other rows by that mark.
func (b *treeBuilder) routeRows(n *Node, rows []int) (left, right []int) {
	spare := b.spare[:len(rows)]
	k, j := 0, 0
	if n.SplitIsCat {
		ids, codes, side := b.s.ids[n.SplitAttr], b.s.codes[n.SplitAttr], b.side
		for _, r := range rows {
			id := ids[r]
			m := side[id]
			if m == 0 {
				m = 2
				if containsCode(n.SplitLeft, codes[id]) {
					m = 1
				}
				side[id] = m
			}
			l := int(2 - m)
			b.left[r] = uint8(l)
			rows[k], spare[j] = r, r
			k, j = k+l, j+1-l
		}
		copy(rows[k:], spare[:j])
		for _, r := range rows {
			side[ids[r]] = 0
		}
		return rows[:k:k], rows[k:]
	}
	xs, v := b.t.Col(n.SplitAttr).Floats, n.SplitValue
	for _, r := range rows {
		l := 0
		if xs[r] <= v {
			l = 1
		}
		b.left[r] = uint8(l)
		rows[k], spare[j] = r, r
		k, j = k+l, j+1-l
	}
	copy(rows[k:], spare[:j])
	return rows[:k:k], rows[k:]
}

// partition splits the range [lo, lo+n) of each non-nil list in lists
// between a node's children, as the routeRows call that split the node's
// n rows marked them in b.left: the left child's rows move to the front
// of the range and the right child's follow, each in the order the list
// held them, so both halves stay sorted.
func (b *treeBuilder) partition(lists [][]int32, lo, n int) {
	for _, list := range lists {
		if list == nil {
			continue
		}
		// As in routeRows, a row is written to both sides.
		list = list[lo : lo+n]
		spare := b.spareList[:n]
		k, j := 0, 0
		for _, r := range list {
			l := int(b.left[r])
			list[k], spare[j] = r, r
			k, j = k+l, j+1-l
		}
		copy(list[k:], spare[:j])
	}
}
