// Package table provides the columnar table substrate used throughout the
// SPARTAN semantic compressor: typed schemas, dictionary-coded categorical
// columns, numeric columns, sampling, and raw (uncompressed) serialization.
//
// A Table is immutable once built (use Builder to construct one); all
// compression components treat it as read-only, which makes concurrent model
// construction safe without locking.
package table

import (
	"fmt"
	"math"
)

// Kind distinguishes the two attribute classes of the paper (§2.1):
// categorical attributes have discrete, unordered domains; numeric
// attributes have ordered domains.
type Kind uint8

const (
	// Numeric attributes hold float64 values with ordered semantics.
	Numeric Kind = iota
	// Categorical attributes hold dictionary-coded discrete values.
	Categorical
)

// String returns "numeric" or "categorical".
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attribute describes a single column of a table.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of attributes.
type Schema []Attribute

// Index returns the position of the attribute with the given name, or -1.
func (s Schema) Index(name string) int {
	for i, a := range s {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the attribute names in schema order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i, a := range s {
		names[i] = a.Name
	}
	return names
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Validate checks that attribute names are non-empty and unique.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("table: schema has no attributes")
	}
	seen := make(map[string]bool, len(s))
	for i, a := range s {
		if a.Name == "" {
			return fmt.Errorf("table: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("table: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Column is a single typed column. Exactly one of Floats or Codes is
// populated, depending on the attribute kind. Categorical values are
// dictionary-coded: Codes[i] indexes into Dict.
type Column struct {
	Kind   Kind
	Floats []float64 // numeric values, len = #rows (Numeric only)
	Codes  []int32   // dictionary codes, len = #rows (Categorical only)
	Dict   []string  // categorical dictionary (Categorical only)
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.Kind == Numeric {
		return len(c.Floats)
	}
	return len(c.Codes)
}

// DomainSize returns the number of distinct values the column can take.
// For categorical columns this is the dictionary size; for numeric columns
// it is the number of distinct observed values.
func (c *Column) DomainSize() int {
	if c.Kind == Categorical {
		return len(c.Dict)
	}
	seen := make(map[float64]struct{}, 64)
	for _, v := range c.Floats {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// MinMax returns the minimum and maximum of a numeric column. It panics on
// categorical columns. Empty columns report (0, 0).
func (c *Column) MinMax() (lo, hi float64) {
	if c.Kind != Numeric {
		panic("table: MinMax on categorical column")
	}
	if len(c.Floats) == 0 {
		return 0, 0
	}
	lo, hi = c.Floats[0], c.Floats[0]
	for _, v := range c.Floats[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Range returns hi-lo for a numeric column.
func (c *Column) Range() float64 {
	lo, hi := c.MinMax()
	return hi - lo
}

// clone returns a deep copy of the column.
func (c *Column) clone() *Column {
	out := &Column{Kind: c.Kind}
	if c.Floats != nil {
		out.Floats = append([]float64(nil), c.Floats...)
	}
	if c.Codes != nil {
		out.Codes = append([]int32(nil), c.Codes...)
	}
	if c.Dict != nil {
		out.Dict = append([]string(nil), c.Dict...)
	}
	return out
}

// Table is an immutable, columnar, typed data table.
type Table struct {
	schema Schema
	cols   []*Column
	rows   int
}

// New constructs a table from a schema and matching columns. It validates
// that kinds agree and all columns have equal length, and that every
// categorical code indexes its dictionary and every numeric value is
// finite.
func New(schema Schema, cols []*Column) (*Table, error) {
	return assemble(schema, cols, checkCells)
}

// WithColumns returns a table of t's schema over cols, one column per
// attribute, checked as New checks them, except that the columns that
// are t's own are not scanned again.
func (t *Table) WithColumns(cols []*Column) (*Table, error) {
	return assemble(t.schema, cols, func(i int, c *Column) error {
		if c == t.cols[i] {
			return nil
		}
		return checkCells(i, c)
	})
}

// assemble is New with the scan of column i's cells left to cells(i, c),
// which runs in column order between the column's kind and length checks.
func assemble(schema Schema, cols []*Column, cells func(i int, c *Column) error) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("table: %d columns for %d attributes", len(cols), len(schema))
	}
	rows := -1
	for i, c := range cols {
		if c == nil {
			return nil, fmt.Errorf("table: column %d is nil", i)
		}
		if c.Kind != schema[i].Kind {
			return nil, fmt.Errorf("table: column %d kind %v != schema kind %v", i, c.Kind, schema[i].Kind)
		}
		if err := cells(i, c); err != nil {
			return nil, err
		}
		if rows == -1 {
			rows = c.Len()
		} else if c.Len() != rows {
			return nil, fmt.Errorf("table: column %d has %d rows, expected %d", i, c.Len(), rows)
		}
	}
	if rows < 0 {
		rows = 0
	}
	return &Table{schema: schema.Clone(), cols: cols, rows: rows}, nil
}

// checkCells reports the first categorical code of column i outside its
// dictionary, or the first numeric value that is not finite.
func checkCells(i int, c *Column) error {
	if c.Kind == Categorical {
		for r, code := range c.Codes {
			if int(code) < 0 || int(code) >= len(c.Dict) {
				return fmt.Errorf("table: column %d row %d code %d out of dictionary range %d", i, r, code, len(c.Dict))
			}
		}
		return nil
	}
	for r, v := range c.Floats {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return notFinite(i, r)
		}
	}
	return nil
}

// notFinite is New's error for row r of column i.
func notFinite(i, r int) error {
	return fmt.Errorf("table: column %d row %d is not finite", i, r)
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return len(t.cols) }

// Schema returns the table schema. Callers must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// Attr returns the i-th attribute descriptor.
func (t *Table) Attr(i int) Attribute { return t.schema[i] }

// Col returns the i-th column. Callers must not modify it.
func (t *Table) Col(i int) *Column { return t.cols[i] }

// Dicts returns each column's dictionary in schema order; only
// categorical columns use theirs. Callers must not modify them.
func (t *Table) Dicts() [][]string {
	dicts := make([][]string, len(t.cols))
	for i, c := range t.cols {
		dicts[i] = c.Dict
	}
	return dicts
}

// ColByName returns the column with the given attribute name, or nil.
func (t *Table) ColByName(name string) *Column {
	i := t.schema.Index(name)
	if i < 0 {
		return nil
	}
	return t.cols[i]
}

// Float returns the numeric value at (row, col). Panics if the column is
// categorical.
func (t *Table) Float(row, col int) float64 {
	c := t.cols[col]
	if c.Kind != Numeric {
		panic(fmt.Sprintf("table: Float on categorical column %d", col))
	}
	return c.Floats[row]
}

// Code returns the dictionary code at (row, col). Panics if the column is
// numeric.
func (t *Table) Code(row, col int) int32 {
	c := t.cols[col]
	if c.Kind != Categorical {
		panic(fmt.Sprintf("table: Code on numeric column %d", col))
	}
	return c.Codes[row]
}

// CatString returns the string value of a categorical cell.
func (t *Table) CatString(row, col int) string {
	c := t.cols[col]
	return c.Dict[c.Codes[row]]
}

// Project returns a new table containing only the given column indices, in
// the given order. Column data is shared, not copied.
func (t *Table) Project(colIdx []int) (*Table, error) {
	schema := make(Schema, len(colIdx))
	cols := make([]*Column, len(colIdx))
	for i, ci := range colIdx {
		if ci < 0 || ci >= len(t.cols) {
			return nil, fmt.Errorf("table: project index %d out of range [0,%d)", ci, len(t.cols))
		}
		schema[i] = t.schema[ci]
		cols[i] = t.cols[ci]
	}
	return New(schema, cols)
}

// SelectRows returns a new table containing only the given rows, in order.
func (t *Table) SelectRows(rows []int) (*Table, error) {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		nc := &Column{Kind: c.Kind, Dict: c.Dict}
		if c.Kind == Numeric {
			nc.Floats = make([]float64, len(rows))
			for j, r := range rows {
				if r < 0 || r >= t.rows {
					return nil, fmt.Errorf("table: row index %d out of range [0,%d)", r, t.rows)
				}
				nc.Floats[j] = c.Floats[r]
			}
		} else {
			nc.Codes = make([]int32, len(rows))
			for j, r := range rows {
				if r < 0 || r >= t.rows {
					return nil, fmt.Errorf("table: row index %d out of range [0,%d)", r, t.rows)
				}
				nc.Codes[j] = c.Codes[r]
			}
		}
		cols[i] = nc
	}
	return New(t.schema.Clone(), cols)
}

// Slice returns rows [lo, hi) of t as a table that shares t's column
// storage: t itself when that is every row, else a view whose columns are
// cut with full slice expressions, so an append to one reallocates
// instead of writing into t. Like t, the view must not be modified in
// place. Slice panics if the range is out of bounds, as slicing does.
func (t *Table) Slice(lo, hi int) *Table {
	if lo < 0 || hi < lo || hi > t.rows {
		panic(fmt.Sprintf("table: slice [%d:%d] out of range [0,%d]", lo, hi, t.rows))
	}
	if lo == 0 && hi == t.rows {
		return t
	}
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		nc := &Column{Kind: c.Kind, Dict: c.Dict}
		if c.Kind == Numeric {
			nc.Floats = c.Floats[lo:hi:hi]
		} else {
			nc.Codes = c.Codes[lo:hi:hi]
		}
		cols[i] = nc
	}
	return &Table{schema: t.schema, cols: cols, rows: hi - lo}
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.clone()
	}
	out, err := New(t.schema.Clone(), cols)
	if err != nil {
		panic("table: clone of valid table failed: " + err.Error())
	}
	return out
}

// Equal reports whether two tables have identical schemas and cell values.
// Categorical cells compare by string value, so differing dictionary
// orderings do not affect equality.
func Equal(a, b *Table) bool {
	if a.rows != b.rows || len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.schema {
		if a.schema[i] != b.schema[i] {
			return false
		}
	}
	for ci := range a.cols {
		ca, cb := a.cols[ci], b.cols[ci]
		if ca.Kind == Numeric {
			for r := 0; r < a.rows; r++ {
				if ca.Floats[r] != cb.Floats[r] {
					return false
				}
			}
		} else {
			for r := 0; r < a.rows; r++ {
				if ca.Dict[ca.Codes[r]] != cb.Dict[cb.Codes[r]] {
					return false
				}
			}
		}
	}
	return true
}

// MaxAbsDiff returns, for each numeric column, the maximum absolute
// difference between corresponding cells of a and b, and for each
// categorical column the fraction of rows whose values differ. The two
// tables must have identical schemas and row counts.
func MaxAbsDiff(a, b *Table) ([]float64, error) {
	if a.rows != b.rows || len(a.cols) != len(b.cols) {
		return nil, fmt.Errorf("table: shape mismatch %dx%d vs %dx%d", a.rows, len(a.cols), b.rows, len(b.cols))
	}
	out := make([]float64, len(a.cols))
	for ci := range a.cols {
		ca, cb := a.cols[ci], b.cols[ci]
		if ca.Kind != cb.Kind {
			return nil, fmt.Errorf("table: column %d kind mismatch", ci)
		}
		if ca.Kind == Numeric {
			m := 0.0
			for r := 0; r < a.rows; r++ {
				d := math.Abs(ca.Floats[r] - cb.Floats[r])
				if d > m {
					m = d
				}
			}
			out[ci] = m
		} else {
			diff := 0
			for r := 0; r < a.rows; r++ {
				if ca.Dict[ca.Codes[r]] != cb.Dict[cb.Codes[r]] {
					diff++
				}
			}
			if a.rows > 0 {
				out[ci] = float64(diff) / float64(a.rows)
			}
		}
	}
	return out, nil
}
