// Package cart implements SPARTAN's CaRTBuilder (paper §3.3): guaranteed-
// error classification and regression trees used as column predictors.
//
// A Model predicts one target attribute from a set of predictor attributes.
// Trees are built on a sample, then "applied" to the full table where every
// row violating the target's error tolerance becomes an exact outlier. The storage cost of a model (tree bits + outlier bits) is what
// the CaRTSelector trades against the cost of materializing the column.
//
// Regression and classification trees share one grower (build.go): they
// differ only in the leaf (the centre of the densest 2·tol window, or the
// majority class with a pro-rata mismatch allowance) and in the split
// criterion (child SSE in regression.go, Gini impurity in
// classification.go).
//
// Two build strategies are provided for the paper's ablation: integrated
// build+prune (expansion stops when a lower bound proves a subtree cannot
// beat the leaf, paper §3.3) and build-then-prune (grow fully, prune
// bottom-up by storage cost).
package cart

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/table"
)

// Node is a binary tree node. Internal nodes split on a predictor
// attribute: numeric splits send rows with value <= SplitValue left;
// categorical splits send rows whose code is in SplitLeft left. Leaves
// carry the prediction for their region.
type Node struct {
	Leaf bool

	// Internal-node fields.
	SplitAttr  int     // table column index of the split attribute
	SplitValue float64 // numeric threshold (numeric splits)
	SplitLeft  []int32 // sorted codes routed left (categorical splits)
	SplitIsCat bool    // discriminates the two split forms
	Left       *Node
	Right      *Node

	// Leaf fields.
	NumValue float64 // predicted value (regression)
	CatValue int32   // predicted code (classification)
}

func (n *Node) takeLeft(t *table.Table, row int) bool {
	if n.SplitIsCat {
		code := t.Code(row, n.SplitAttr)
		return containsCode(n.SplitLeft, code)
	}
	return t.Float(row, n.SplitAttr) <= n.SplitValue
}

func containsCode(sorted []int32, c int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == c
}

// flatTree is a tree laid out in preorder as one array, each split bound
// to its column of one table: a node's left child follows it and right
// indexes the other, and a walk reads the split column's values directly.
type flatTree []flatNode

// Node kinds of a flatTree.
const (
	flatLeaf uint8 = iota
	flatNum        // left when floats[r] <= value
	flatBits       // left when codes[r]'s bit is set in bits
	flatSet        // left when codes[r] is in the sorted set
)

type flatNode struct {
	kind   uint8
	right  int32
	code   int32     // a categorical leaf's prediction
	value  float64   // a numeric split's threshold, or a numeric leaf's prediction
	floats []float64 // a numeric split's column
	codes  []int32   // a categorical split's column
	bits   []uint64
	set    []int32
}

// flatten lays the tree out over cols, a table's columns by attribute
// index. It runs once per pass over a table rather than being cached on
// m: segments decode concurrently against one shared model.
func (m *Model) flatten(cols []*table.Column) flatTree {
	f := make(flatTree, 0, m.NumNodes())
	var add func(n *Node)
	add = func(n *Node) {
		i := len(f)
		f = append(f, flatNode{kind: flatLeaf, value: n.NumValue, code: n.CatValue})
		if n.Leaf {
			return
		}
		fn := flatNode{kind: flatNum, value: n.SplitValue, floats: cols[n.SplitAttr].Floats}
		if n.SplitIsCat {
			fn = catSplit(n.SplitLeft, cols[n.SplitAttr].Codes)
		}
		add(n.Left)
		fn.right = int32(len(f))
		f[i] = fn
		add(n.Right)
	}
	add(m.Root)
	return f
}

// catSplit tests a categorical split against a bitmap of its left codes,
// but only when the bitmap is no larger than the set: a split on a huge
// code keeps the sorted search, so memory stays linear in the model. A
// set that is not sorted and non-negative, as the builder writes it,
// keeps the search too, which a bitmap would answer differently.
func catSplit(left, codes []int32) flatNode {
	n := flatNode{kind: flatSet, codes: codes, set: left}
	if len(left) == 0 || left[0] < 0 || !slices.IsSorted(left) {
		return n
	}
	words := int(left[len(left)-1])/64 + 1
	if words > len(left)+1 {
		return n
	}
	n.kind, n.bits = flatBits, make([]uint64, words)
	for _, c := range left {
		n.bits[c/64] |= 1 << (c % 64)
	}
	return n
}

// predict returns the tree's raw prediction for row r (before outlier
// substitution).
func (f flatTree) predict(r int) (float64, int32) {
	i := 0
	for {
		n := &f[i]
		var left bool
		switch n.kind {
		case flatLeaf:
			return n.value, n.code
		case flatNum:
			left = n.floats[r] <= n.value
		case flatBits:
			c := uint32(n.codes[r])
			left = c/64 < uint32(len(n.bits)) && n.bits[c/64]&(1<<(c%64)) != 0
		default:
			left = containsCode(n.set, n.codes[r])
		}
		if left {
			i++
		} else {
			i = int(n.right)
		}
	}
}

// columns returns t's columns by attribute index.
func columns(t *table.Table) []*table.Column {
	cols := make([]*table.Column, t.NumCols())
	for i := range cols {
		cols[i] = t.Col(i)
	}
	return cols
}

// Outlier records a row whose predicted value violates the tolerance; the
// exact value is stored in the compressed output.
type Outlier struct {
	Row  int
	Num  float64 // exact numeric value (regression targets)
	Code int32   // exact code (classification targets)
}

// Model is a CaRT predictor 𝒳ᵢ → Xᵢ for a single target attribute. It is
// only the tree: the outliers of a set of rows are ComputeOutliers's
// result, and a learned model is never written again, so any number of
// scans and reconstructions may share it.
type Model struct {
	Target     int // target column index
	TargetKind table.Kind
	Root       *Node
}

// UsedPredictors returns the sorted set of attribute indices that actually
// appear in split nodes. Irrelevant candidates passed to the builder are
// naturally filtered out here (paper §3.2, Greedy step 2).
func (m *Model) UsedPredictors() []int {
	set := map[int]struct{}{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.Leaf {
			return
		}
		set[n.SplitAttr] = struct{}{}
		walk(n.Left)
		walk(n.Right)
	}
	walk(m.Root)
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// NumNodes returns the total node count of the tree.
func (m *Model) NumNodes() int {
	var count func(n *Node) int
	count = func(n *Node) int {
		if n == nil {
			return 0
		}
		if n.Leaf {
			return 1
		}
		return 1 + count(n.Left) + count(n.Right)
	}
	return count(m.Root)
}

// NumLeaves returns the leaf count.
func (m *Model) NumLeaves() int {
	var count func(n *Node) int
	count = func(n *Node) int {
		if n == nil {
			return 0
		}
		if n.Leaf {
			return 1
		}
		return count(n.Left) + count(n.Right)
	}
	return count(m.Root)
}

// Depth returns the maximum root-to-leaf depth (a single leaf has depth 1).
func (m *Model) Depth() int {
	var depth func(n *Node) int
	depth = func(n *Node) int {
		if n == nil {
			return 0
		}
		if n.Leaf {
			return 1
		}
		l, r := depth(n.Left), depth(n.Right)
		if l > r {
			return 1 + l
		}
		return 1 + r
	}
	return depth(m.Root)
}

// String renders the tree structure for debugging.
func (m *Model) String() string {
	var b []byte
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		if n == nil {
			return
		}
		if n.Leaf {
			if m.TargetKind == table.Numeric {
				b = append(b, fmt.Sprintf("%sleaf %.4g\n", indent, n.NumValue)...)
			} else {
				b = append(b, fmt.Sprintf("%sleaf code %d\n", indent, n.CatValue)...)
			}
			return
		}
		if n.SplitIsCat {
			b = append(b, fmt.Sprintf("%sattr %d in %v ?\n", indent, n.SplitAttr, n.SplitLeft)...)
		} else {
			b = append(b, fmt.Sprintf("%sattr %d <= %.4g ?\n", indent, n.SplitAttr, n.SplitValue)...)
		}
		walk(n.Left, indent+"  ")
		walk(n.Right, indent+"  ")
	}
	walk(m.Root, "")
	return string(b)
}
