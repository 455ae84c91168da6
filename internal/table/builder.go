package table

import (
	"fmt"
	"math"
)

// Builder constructs a Table row by row. It maintains the categorical
// dictionaries incrementally and validates cell kinds on append.
type Builder struct {
	schema Schema
	cols   []*Column
	dicts  []map[string]int32 // per categorical column: value -> code
	rows   int
}

// NewBuilder returns a Builder for the given schema.
func NewBuilder(schema Schema) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{schema: schema.Clone()}
	b.cols = make([]*Column, len(schema))
	b.dicts = make([]map[string]int32, len(schema))
	for i, a := range schema {
		b.cols[i] = &Column{Kind: a.Kind}
		if a.Kind == Categorical {
			b.dicts[i] = make(map[string]int32)
		}
	}
	return b, nil
}

// MustBuilder is like NewBuilder but panics on error; intended for tests
// and generators with known-good schemas.
func MustBuilder(schema Schema) *Builder {
	b, err := NewBuilder(schema)
	if err != nil {
		panic(err)
	}
	return b
}

// AppendRow appends one tuple. Each value must be a float64 for numeric
// attributes, finite and within float32 range, or a string for
// categorical attributes. A failed append leaves the builder unchanged.
func (b *Builder) AppendRow(values ...any) error {
	if len(values) != len(b.schema) {
		return fmt.Errorf("table: row has %d values, schema has %d", len(values), len(b.schema))
	}
	// Validate first so a failed append leaves the builder unchanged.
	for i, v := range values {
		switch b.schema[i].Kind {
		case Numeric:
			f, ok := toFloat(v)
			if !ok {
				return fmt.Errorf("table: attribute %q wants numeric, got %T", b.schema[i].Name, v)
			}
			// Cells are stored as float32 (below), so a finite float64
			// that rounds to ±Inf is refused too.
			if g := float64(float32(f)); math.IsNaN(g) || math.IsInf(g, 0) {
				return fmt.Errorf("table: attribute %q value %g is not a finite float32", b.schema[i].Name, f)
			}
		case Categorical:
			if _, ok := v.(string); !ok {
				return fmt.Errorf("table: attribute %q wants string, got %T", b.schema[i].Name, v)
			}
		}
	}
	for i, v := range values {
		if b.schema[i].Kind == Numeric {
			f, _ := toFloat(v)
			// Numeric cells travel as 4-byte floats (the paper's record
			// layout); coercing here makes every later serialization
			// bit-exact, so error tolerances never leak rounding noise.
			b.cols[i].Floats = append(b.cols[i].Floats, float64(float32(f)))
			continue
		}
		s := v.(string)
		code, ok := b.dicts[i][s]
		if !ok {
			code = int32(len(b.cols[i].Dict))
			b.dicts[i][s] = code
			b.cols[i].Dict = append(b.cols[i].Dict, s)
		}
		b.cols[i].Codes = append(b.cols[i].Codes, code)
	}
	b.rows++
	return nil
}

// MustAppendRow is AppendRow that panics on error.
func (b *Builder) MustAppendRow(values ...any) {
	if err := b.AppendRow(values...); err != nil {
		panic(err)
	}
}

// NumRows reports how many rows have been appended so far.
func (b *Builder) NumRows() int { return b.rows }

// Build finalizes and returns the table. The builder must not be used
// afterwards.
func (b *Builder) Build() (*Table, error) {
	t, err := New(b.schema, b.cols)
	if err != nil {
		return nil, err
	}
	b.cols = nil
	b.dicts = nil
	return t, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Table {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}
