package cart

import (
	"math"

	"repro/internal/table"
)

// CostModel converts tree structure and outlier counts into storage bits,
// implementing the cost accounting of DESIGN.md §5. All selector decisions
// (MaterCost vs PredCost, paper §2.2) are denominated in these bits.
type CostModel struct {
	attrBits  float64   // bits to name a split attribute
	rowBits   float64   // bits to name an outlier row
	valueBits []float64 // per-attribute value width
	materBits []float64 // per-attribute per-value materialization bits
	rows      int
}

// NewCostModel derives a cost model from a table: attribute ids cost
// log2(#attrs) bits, row ids log2(#rows) bits, numeric values 32 bits and
// categorical values ceil(log2 |dom|) bits (min 1).
func NewCostModel(t *table.Table) *CostModel {
	cm := &CostModel{
		attrBits:  ceilLog2(t.NumCols()),
		rowBits:   ceilLog2(t.NumRows()),
		valueBits: make([]float64, t.NumCols()),
		rows:      t.NumRows(),
	}
	for i := 0; i < t.NumCols(); i++ {
		col := t.Col(i)
		if col.Kind == table.Numeric {
			cm.valueBits[i] = 32
		} else {
			cm.valueBits[i] = ceilLog2(len(col.Dict))
		}
	}
	cm.materBits = append([]float64(nil), cm.valueBits...)
	return cm
}

// SetMaterBits overrides the per-value materialization cost of attribute i
// (bits per value). SPARTAN estimates these by entropy-coding sample
// columns, so the selector's MaterCost-vs-PredCost trade-off reflects what
// the T' encoder will actually achieve rather than raw value widths.
func (cm *CostModel) SetMaterBits(i int, bitsPerValue float64) {
	cm.materBits[i] = bitsPerValue
}

func ceilLog2(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Ceil(math.Log2(float64(n)))
}

// NumRows returns the row count of the table the model was derived from.
func (cm *CostModel) NumRows() int { return cm.rows }

// ValueBits returns the storage width of one value of attribute i.
func (cm *CostModel) ValueBits(i int) float64 { return cm.valueBits[i] }

// MaterCost returns the bits needed to materialize attribute i in full
// (paper: MaterCost(Xᵢ)), using the (possibly entropy-estimated) per-value
// materialization width.
func (cm *CostModel) MaterCost(i int) float64 {
	return float64(cm.rows) * cm.materBits[i]
}

// LeafBits returns the bits for one leaf of a tree predicting target.
func (cm *CostModel) LeafBits(target int) float64 {
	// 1 bit leaf/internal marker + the label value.
	return 1 + cm.valueBits[target]
}

// InternalBits returns the bits for one internal node splitting on attr.
func (cm *CostModel) InternalBits(attr int) float64 {
	// 1 bit marker + attribute id + split payload (threshold or code set;
	// we charge one attribute-value width, matching the paper's "split
	// value at internal node" accounting in Example 1.1).
	return 1 + cm.attrBits + cm.valueBits[attr]
}

// OutlierBits returns the bits to store one outlier of the target
// attribute: a row id plus the exact value.
func (cm *CostModel) OutlierBits(target int) float64 {
	return cm.rowBits + cm.valueBits[target]
}

// ModelTreeBits returns the serialized size of a model's tree.
func (cm *CostModel) ModelTreeBits(m *Model) float64 {
	var walk func(n *Node) float64
	walk = func(n *Node) float64 {
		if n == nil {
			return 0
		}
		if n.Leaf {
			return cm.LeafBits(m.Target)
		}
		return cm.InternalBits(n.SplitAttr) + walk(n.Left) + walk(n.Right)
	}
	return walk(m.Root)
}
