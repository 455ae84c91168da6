package cart

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/table"
)

// Sample is a table CaRTs are learned on, with each numeric column's rows
// sorted once by (value, row). Every tree Build grows on it copies these
// lists and splits them stably node by node, so no node sorts anything,
// and any number of concurrent builds may share one Sample: it is never
// written after NewSample.
type Sample struct {
	t      *table.Table
	sorted [][]int32 // by attribute: a numeric column's rows by (value, row); nil for a categorical one
}

// NewSample sorts each numeric column of t. Ties break by row, so the
// order is total and does not depend on the sort algorithm. A table of
// more rows than an int32 indexes gets no lists; Build refuses it.
func NewSample(t *table.Table) *Sample {
	s := &Sample{t: t, sorted: make([][]int32, t.NumCols())}
	n := t.NumRows()
	if n > math.MaxInt32 {
		return s
	}
	for a := range s.sorted {
		col := t.Col(a)
		if col.Kind != table.Numeric {
			continue
		}
		xs := col.Floats
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		slices.SortFunc(rows, func(i, j int32) int {
			if c := cmp.Compare(xs[i], xs[j]); c != 0 {
				return c
			}
			return cmp.Compare(i, j)
		})
		s.sorted[a] = rows
	}
	return s
}

// Table returns the sampled table.
func (s *Sample) Table() *table.Table { return s.t }
