package cart

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/table"
)

// Sample is a table CaRTs are learned on, with each numeric column's rows
// sorted once by (value, row) and each categorical column's codes
// numbered once. Every tree Build grows on it copies the sorted lists and
// splits them stably node by node, so no node sorts anything, and counts
// classes and groups through slices indexed by the dense ids, so no node
// keeps a map. Any number of concurrent builds may share one Sample: it
// is never written after NewSample.
type Sample struct {
	t      *table.Table
	sorted [][]int32 // by attribute: a numeric column's rows by (value, row); nil for a categorical one
	ids    [][]int32 // by attribute: a categorical column's dense id of each row; nil for a numeric one
	codes  [][]int32 // by attribute: a categorical column's code of each dense id
}

// NewSample sorts each numeric column of t and numbers each categorical
// column's codes. Ties break by row, so the order is total and does not
// depend on the sort algorithm. A table of more rows than an int32
// indexes gets no lists; Build refuses it.
func NewSample(t *table.Table) *Sample {
	nc := t.NumCols()
	s := &Sample{t: t, sorted: make([][]int32, nc), ids: make([][]int32, nc), codes: make([][]int32, nc)}
	n := t.NumRows()
	if n > math.MaxInt32 {
		return s
	}
	for a := range s.sorted {
		col := t.Col(a)
		if col.Kind != table.Numeric {
			s.ids[a], s.codes[a] = numberCodes(col.Codes)
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

// numberCodes numbers the distinct codes of a column densely, in order of
// first appearance: ids[r] is row r's id and codes[id] its code. Both are
// sized by the rows and the codes they hold, never by the dictionary.
func numberCodes(col []int32) (ids, codes []int32) {
	ids = make([]int32, len(col))
	seen := map[int32]int32{}
	for r, c := range col {
		id, ok := seen[c]
		if !ok {
			id = int32(len(codes))
			seen[c] = id
			codes = append(codes, c)
		}
		ids[r] = id
	}
	return ids, codes
}

// Table returns the sampled table.
func (s *Sample) Table() *table.Table { return s.t }
