package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cart"
	"repro/internal/datagen"
	"repro/internal/selector"
	"repro/internal/table"
)

func TestPipelineRoundTrip(t *testing.T) {
	tb := datagen.CDR(1200, 21)
	tol, err := table.UniformTolerances(tb, 0.01, 0).Resolve(tb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stats, err := Compress(&buf, tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(&buf)
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := table.MaxAbsDiff(tb, back)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d > tol[i].Value+1e-9 {
			t.Errorf("attribute %d error %g > %g", i, d, tol[i].Value)
		}
	}
	if stats.Ratio <= 0 || stats.Ratio >= 1 {
		t.Errorf("ratio = %g, want in (0,1) for CDR data", stats.Ratio)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SampleBytes != 50<<10 {
		t.Errorf("SampleBytes default = %d, want 50KB (paper §4.1)", o.SampleBytes)
	}
	if o.Theta != 2 {
		t.Errorf("Theta default = %g, want 2 (paper §4.1)", o.Theta)
	}
	if o.Seed != 1 {
		t.Errorf("Seed default = %d, want 1", o.Seed)
	}
}

func TestCollectSplitValues(t *testing.T) {
	m := &cart.Model{Target: 5, TargetKind: table.Numeric, Root: &cart.Node{
		SplitAttr: 0, SplitValue: 10,
		Left: &cart.Node{Leaf: true},
		Right: &cart.Node{
			SplitAttr: 0, SplitValue: 20,
			Left:  &cart.Node{SplitAttr: 2, SplitIsCat: true, SplitLeft: []int32{1}, Left: &cart.Node{Leaf: true}, Right: &cart.Node{Leaf: true}},
			Right: &cart.Node{Leaf: true},
		},
	}}
	plan := &selector.Result{Models: map[int]*cart.Model{5: m}}
	got := collectSplitValues(plan)
	if len(got[0]) != 2 {
		t.Errorf("attr 0 splits = %v, want two thresholds", got[0])
	}
	if len(got[2]) != 0 {
		t.Errorf("categorical split leaked into numeric split values: %v", got[2])
	}
}

// TestSnapKeepsSplitSides snaps hand-picked cells under a hand-built
// tree that splits x at 10. With e = 1, x = 9.5 and 11.25 move to the
// grid points 10 and 12, but 10.5 stays, since its grid point 10 lies
// across the split. z, used by no split, has e = 0.75 and values near
// 2^23, where float32 steps by 1: 8388611 and 8388613 stay because
// their grid points 8388610.5 and 8388613.5 round to 8388610 and
// 8388614, farther than e. w, with e = 1, keeps its smallest and
// largest cells, 0.5 and 5.25, off their grid points 0 and 6, while 3.5
// moves to 4.
func TestSnapKeepsSplitSides(t *testing.T) {
	schema := table.Schema{{Name: "x", Kind: table.Numeric}, {Name: "z", Kind: table.Numeric},
		{Name: "w", Kind: table.Numeric}, {Name: "y", Kind: table.Numeric}}
	rows := [][3]float64{{0, 8388608, 0.5}, {9.5, 8388611, 3.5}, {10.5, 8388612, 4}, {11.25, 8388613, 2}, {20, 8388616, 5.25}}
	b := table.MustBuilder(schema)
	for _, row := range rows {
		b.MustAppendRow(row[0], row[1], row[2], 0.0)
	}
	tb := b.MustBuild()
	plan := &selector.Result{Materialized: []int{0, 1, 2}, Models: map[int]*cart.Model{3: {Target: 3, TargetKind: table.Numeric,
		Root: &cart.Node{SplitAttr: 0, SplitValue: 10, Left: &cart.Node{Leaf: true}, Right: &cart.Node{Leaf: true}}}}}
	resolved := table.Tolerances{{Value: 1}, {Value: 0.75}, {Value: 1}, {Value: 1}}
	got, moved, err := snap(tb, plan.Materialized, resolved, collectSplitValues(plan), new([]float64))
	if err != nil {
		t.Fatal(err)
	}
	for a, want := range [][]float64{{0, 10, 10.5, 12, 20}, {8388608, 8388611, 8388612, 8388613, 8388616}, {0.5, 4, 4, 2, 5.25}, {0, 0, 0, 0, 0}} {
		if !slices.Equal(got.Col(a).Floats, want) {
			t.Errorf("%s snapped to %v, want %v", tb.Attr(a).Name, got.Col(a).Floats, want)
		}
	}
	if moved != 3 {
		t.Errorf("%d cells moved, want 3", moved)
	}
	for r, row := range rows {
		if tb.Float(r, 0) != row[0] || tb.Float(r, 2) != row[2] {
			t.Fatal("snap wrote its input")
		}
	}
}

// TestSplitValueInvariantProperty: every snapped cell is within its
// bound of the original and on the original's side of every split
// value, and the column's smallest and largest cells stay, for random
// float32 values, bounds and splits drawn from the values themselves,
// the way a CaRT's thresholds are.
func TestSplitValueInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := table.MustBuilder(table.Schema{{Name: "x", Kind: table.Numeric}})
		scale := math.Pow(10, float64(rng.Intn(9)-2))
		for range 200 {
			b.MustAppendRow(float64(float32(rng.NormFloat64() * scale)))
		}
		tb := b.MustBuild()
		e := scale * rng.Float64()
		var splits []float64
		for range rng.Intn(6) {
			splits = append(splits, tb.Float(rng.Intn(tb.NumRows()), 0))
		}
		slices.Sort(splits)
		got, _, err := snap(tb, []int{0}, table.Tolerances{{Value: e}}, map[int][]float64{0: splits}, new([]float64))
		if err != nil {
			return false
		}
		lo, hi := tb.Col(0).MinMax()
		for r, v := range tb.Col(0).Floats {
			g := got.Float(r, 0)
			if math.Abs(g-v) > e || float64(float32(g)) != g || (v == lo || v == hi) && g != v {
				return false
			}
			for _, s := range splits {
				if (v <= s) != (g <= s) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
