package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/table"
)

// referenceSnap is snap as it first tested a cell: two binary searches,
// one for v and one for g, whose positions must agree, and every
// condition checked on every cell. It is the reference snap must match
// cell for cell.
func referenceSnap(t *table.Table, materialized []int, resolved table.Tolerances, splits map[int][]float64) (*table.Table, int, error) {
	cols := make([]*table.Column, t.NumCols())
	for a := range cols {
		cols[a] = t.Col(a)
	}
	moved := 0
	for _, a := range materialized {
		if t.Attr(a).Kind != table.Numeric || resolved[a].Value <= 0 {
			continue
		}
		e, sp := resolved[a].Value, splits[a]
		lo, hi := cols[a].MinMax()
		out := make([]float64, t.NumRows())
		for r, v := range cols[a].Floats {
			out[r] = v
			g := float64(float32(math.Round(v/(2*e)) * 2 * e))
			vi, _ := slices.BinarySearch(sp, v)
			gi, _ := slices.BinarySearch(sp, g)
			if g != v && math.Abs(g-v) <= e && gi == vi && v > lo && v < hi {
				out[r] = g
				moved++
			}
		}
		cols[a] = &table.Column{Kind: table.Numeric, Floats: out}
	}
	snapped, err := table.New(t.Schema(), cols)
	return snapped, moved, err
}

// snapCase draws one lossy column: its bound e, its sorted split values
// (duplicates allowed, as several trees may split on one value) and cells
// that sit on split values, just beside them, on grid points and grid
// half-points, at ±0 and, in half the columns, at and near ±MaxFloat32,
// which are then the column's extremes.
func snapCase(rng *rand.Rand, rows, nsplits int) (e float64, sp, cells []float64) {
	e = []float64{0.5, 0.05, 1e-3, 3, 0.7, 1e37}[rng.Intn(6)]
	step := 2 * e
	grid := func() float64 { return float64(rng.Intn(41)-20) * step }
	// f32 rounds v to float32, clamped to the finite range.
	f32 := func(v float64) float64 { return float64(float32(max(-math.MaxFloat32, min(v, math.MaxFloat32)))) }
	for range nsplits {
		var s float64
		switch rng.Intn(4) {
		case 0: // on a grid point
			s = grid()
		case 1: // on a half-point, between two grid points
			s = grid() + e
		case 2:
			s = f32(grid() + (rng.Float64()-0.5)*step)
		default:
			s = f32(grid() + (rng.Float64()-0.5)*1e-6*step)
		}
		sp = append(sp, s)
		if rng.Intn(8) == 0 {
			sp = append(sp, s)
		}
	}
	slices.Sort(sp)
	near := func(v float64) float64 {
		switch rng.Intn(4) {
		case 0:
			return v
		case 1:
			return math.Nextafter(v, math.Inf(1))
		case 2:
			return math.Nextafter(v, math.Inf(-1))
		default:
			return f32(v + (rng.Float64()-0.5)*e)
		}
	}
	wide := rng.Intn(2) == 0
	for range rows {
		var v float64
		switch k := rng.Intn(10); {
		case k < 3 && len(sp) > 0:
			v = near(sp[rng.Intn(len(sp))])
		case k < 5:
			v = near(grid())
		case k < 6:
			v = near(grid() + e)
		case k < 7:
			v = []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
		case k < 8 && wide:
			m := []float64{math.MaxFloat32, float64(math.Nextafter32(math.MaxFloat32, 0)),
				f32(math.MaxFloat32 - float64(rng.Intn(4))*step)}[rng.Intn(3)]
			v = math.Copysign(m, float64(rng.Intn(2)*2-1))
		default:
			v = f32(grid() + (rng.Float64()-0.5)*4*step)
		}
		cells = append(cells, v)
	}
	return e, sp, cells
}

// TestSnapMatchesReference snaps random tables of three lossy numeric
// columns, with 0, 1 and many split values each, beside a lossless
// numeric and a categorical column, and requires snap's cells to equal
// the two-search reference's bit for bit, with the same count of moved
// cells. The cells sit where the comparisons are tight: on split values
// and beside them, on grid points and half-points, at ±0 and near
// ±MaxFloat32.
func TestSnapMatchesReference(t *testing.T) {
	const rows = 400
	rng := rand.New(rand.NewSource(11))
	schema := table.Schema{
		{Name: "a", Kind: table.Numeric},
		{Name: "b", Kind: table.Numeric},
		{Name: "c", Kind: table.Numeric},
		{Name: "exact", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	}
	cells := new([]float64)
	for trial := range 300 {
		cols := make([]*table.Column, len(schema))
		resolved := make(table.Tolerances, len(schema))
		splits := map[int][]float64{}
		for a, nsplits := range []int{0, 1, 1 + rng.Intn(60)} {
			var vs []float64
			resolved[a].Value, splits[a], vs = snapCase(rng, rows, nsplits)
			cols[a] = &table.Column{Kind: table.Numeric, Floats: vs}
		}
		exact := &table.Column{Kind: table.Numeric, Floats: make([]float64, rows)}
		g := &table.Column{Kind: table.Categorical, Codes: make([]int32, rows), Dict: []string{"x", "y"}}
		for r := range rows {
			exact.Floats[r] = float64(rng.Intn(100)) / 8
			g.Codes[r] = int32(rng.Intn(2))
		}
		cols[3], cols[4] = exact, g
		resolved[4].Value = 0.1
		tb, err := table.New(schema, cols)
		if err != nil {
			t.Fatal(err)
		}
		materialized := []int{0, 1, 2, 3, 4}
		got, moved, err := snap(tb, materialized, resolved, splits, cells)
		if err != nil {
			t.Fatal(err)
		}
		want, wantMoved, err := referenceSnap(tb, materialized, resolved, splits)
		if err != nil {
			t.Fatal(err)
		}
		if moved != wantMoved {
			t.Fatalf("trial %d: snap moved %d cells, the reference %d", trial, moved, wantMoved)
		}
		for a := range schema {
			if err := sameCells(got.Col(a), want.Col(a)); err != nil {
				t.Fatalf("trial %d, column %s (e %g, %d splits): %v", trial, schema[a].Name, resolved[a].Value, len(splits[a]), err)
			}
		}
	}
}

// sameCells reports the first cell where two columns differ in bits.
func sameCells(got, want *table.Column) error {
	if !slices.Equal(got.Codes, want.Codes) {
		return fmt.Errorf("codes differ")
	}
	if len(got.Floats) != len(want.Floats) {
		return fmt.Errorf("%d cells, want %d", len(got.Floats), len(want.Floats))
	}
	for r := range got.Floats {
		if math.Float64bits(got.Floats[r]) != math.Float64bits(want.Floats[r]) {
			return fmt.Errorf("row %d: %g, want %g", r, got.Floats[r], want.Floats[r])
		}
	}
	return nil
}
