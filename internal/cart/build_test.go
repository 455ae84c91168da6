package cart

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// TestRouteRowsIsStable partitions random row lists, full of ties on the
// split attribute, by numeric and categorical splits, and requires the
// in-place partition of a builder from newTreeBuilder to give the left
// and right sequences the reference builder's appending routing gives, as
// sub-slices of the input that leave the rest of its buffer alone, and to
// mark each row's side for partition.
func TestRouteRowsIsStable(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(7))
	b := table.MustBuilder(table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
		{Name: "y", Kind: table.Numeric},
	})
	for i := 0; i < n; i++ {
		b.MustAppendRow(float64(rng.Intn(8)), fmt.Sprintf("g%d", rng.Intn(6)), float64(i))
	}
	tb := b.MustBuild()
	tbl := newTreeBuilder(NewSample(tb), 2, []int{0, 1}, 0, NewCostModel(tb), Config{})
	reference := refBuilder{tbl}.routeRows
	for trial := 0; trial < 200; trial++ {
		var s *Node
		if trial%2 == 0 {
			s = &Node{SplitAttr: 0, SplitValue: float64(rng.Intn(9)) - 0.5}
		} else {
			var set []int32
			for c := int32(0); c < int32(tb.Col(1).DomainSize()); c++ {
				if rng.Intn(2) == 0 {
					set = append(set, c)
				}
			}
			s = &Node{SplitAttr: 1, SplitIsCat: true, SplitLeft: set}
		}
		// rows is a window of buf: shuffled rows, duplicates allowed, with
		// sentinels on both sides that routing must not touch.
		lo, hi := rng.Intn(10), n-rng.Intn(10)
		buf := make([]int, n)
		for i := range buf {
			buf[i] = -1
		}
		for i := lo; i < hi; i++ {
			buf[i] = rng.Intn(n)
		}
		rows := buf[lo:hi]
		wantL, wantR := reference(s, rows)
		left, right := tbl.routeRows(s, rows)
		if !slices.Equal(left, wantL) || !slices.Equal(right, wantR) {
			t.Fatalf("trial %d: routeRows gave %d+%d rows unlike the appended %d+%d, or out of order",
				trial, len(left), len(right), len(wantL), len(wantR))
		}
		for _, r := range left {
			if tbl.left[r] != 1 {
				t.Fatalf("trial %d: left row %d is not marked left", trial, r)
			}
		}
		for _, r := range right {
			if tbl.left[r] != 0 {
				t.Fatalf("trial %d: right row %d is marked left", trial, r)
			}
		}
		if len(left)+len(right) != len(rows) || (len(left) > 0 && &left[0] != &rows[0]) ||
			(len(right) > 0 && &right[0] != &rows[len(left)]) || cap(left) != len(left) {
			t.Fatalf("trial %d: halves are not the disjoint sub-slices rows[:k:k] and rows[k:]", trial)
		}
		for i := range buf {
			if (i < lo || i >= hi) && buf[i] != -1 {
				t.Fatalf("trial %d: routeRows wrote buf[%d] outside rows", trial, i)
			}
		}
	}
}

// TestBuildAllocations pins that a tree build allocates per tree and per
// node, not per row of each node: for every target of a 12k-row CDR
// sample under integrated and post-pruning, Build may allocate
// bytesPerRow for each sample row (the row buffer, routeRows' spare, the
// copied sorted lists of CDR's four numeric columns, partition's side
// marks and spare, and the per-row class indices: 47 B measured) and
// bytesPerNode for each node of the tree (the node, its split set and the
// split each candidate scores: at most 1.5 KB measured). The Sample is
// sorted and numbered once outside the measurement, as a learn shares it
// across its builds. Copying each node's rows or sorted lists, or
// cloning the lists for PruneAfter, costs about their size times the
// tree's depth or once more per tree, and fails it.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented appends allocate a copy of each buffer they grow")
	}
	const rows, bytesPerRow, bytesPerNode = 12000, 56, 2 << 10
	tb := datagen.CDR(rows, 1)
	tol := table.UniformTolerances(tb, 0.01, 0.02)
	cm := NewCostModel(tb)
	s := NewSample(tb)
	for target := 0; target < tb.NumCols(); target++ {
		cands := otherAttrs(tb, target)
		for _, mode := range []PruneMode{PruneIntegrated, PruneAfter} {
			var m *Model
			var err error
			alloc := allocDelta(func() {
				m, _, err = Build(context.Background(), s, target, cands, tol[target].Value, cm, Config{Prune: mode})
			})
			if err != nil {
				t.Fatal(err)
			}
			limit := uint64(bytesPerRow*rows + bytesPerNode*m.NumNodes())
			t.Logf("%s, mode %d: %d nodes, %d bytes (limit %d)", tb.Attr(target).Name, mode, m.NumNodes(), alloc, limit)
			if alloc > limit {
				t.Errorf("%s, mode %d: Build allocated %d bytes for a %d-node tree over %d rows, want ≤ %d",
					tb.Attr(target).Name, mode, alloc, m.NumNodes(), rows, limit)
			}
		}
	}
}

// TestRowLoopAllocations pins that the model's passes over a table's
// rows allocate per call, not per row: sorting a learn sample
// (NewSample), the outlier scan (ComputeOutliers, numeric, categorical
// and with per-class budgets), the selectors' holdout count
// (CountViolations) and decoding's reconstruction with its outlier
// patch (Reconstruct). Trees learned on 4k census rows run over those
// rows and over 32k; the coarse categorical tree and tight tolerances
// leave thousands of outliers at 32k rows. 8× the rows may add at most
// growthSlack allocations (the outlier lists' appends grow them), while
// a defer or a scratch value escaping in one of these loops adds one per
// row or outlier.
func TestRowLoopAllocations(t *testing.T) {
	const small, large, growthSlack = 4000, 32000, 32
	full := datagen.Census(large, 1)
	head := make([]int, small)
	for i := range head {
		head[i] = i
	}
	part, err := full.SelectRows(head)
	if err != nil {
		t.Fatal(err)
	}
	num, cat := full.Schema().Index("weekly_earn"), full.Schema().Index("employment")
	cm := NewCostModel(part)
	s := NewSample(part)
	numTree, _, err := Build(context.Background(), s, num, otherAttrs(part, num), 50, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	catTree, _, err := Build(context.Background(), s, cat, otherAttrs(part, cat), 0.3, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	perClass := table.Tolerance{Value: 0.2, PerClass: map[string]float64{"fulltime": 0}}.ClassBudgets(full.Col(cat).Dict)
	// Each case prepares its input outside the measurement and returns the
	// measured call.
	scan := func(m *Model, tol float64, perClass []float64) func(*table.Table) func() {
		return func(tb *table.Table) func() {
			return func() {
				if _, err := m.ComputeOutliers(context.Background(), tb, tol, perClass); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	patch := func(m *Model, tol float64) func(*table.Table) func() {
		return func(tb *table.Table) func() {
			outliers, err := m.ComputeOutliers(context.Background(), tb, tol, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(outliers) < tb.NumRows()/20 {
				t.Fatalf("%d outliers over %d rows, want at least 5%% to patch", len(outliers), tb.NumRows())
			}
			cols := columns(tb)
			cols[m.Target] = &table.Column{Kind: m.TargetKind, Floats: make([]float64, tb.NumRows()), Codes: make([]int32, tb.NumRows())}
			return func() { m.Reconstruct(cols, outliers) }
		}
	}
	for _, tc := range []struct {
		name string
		prep func(*table.Table) func()
	}{
		{"NewSample", func(tb *table.Table) func() { return func() { NewSample(tb) } }},
		{"ComputeOutliers/numeric", scan(numTree, 5, nil)},
		{"ComputeOutliers/categorical", scan(catTree, 0.01, nil)},
		{"ComputeOutliers/per-class", scan(catTree, 0.2, perClass)},
		{"CountViolations/numeric", func(tb *table.Table) func() { return func() { numTree.CountViolations(tb, 5) } }},
		{"CountViolations/categorical", func(tb *table.Table) func() { return func() { catTree.CountViolations(tb, 0.01) } }},
		{"Reconstruct/numeric", patch(numTree, 5)},
		{"Reconstruct/categorical", patch(catTree, 0)},
	} {
		a := mallocs(tc.prep(part))
		b := mallocs(tc.prep(full))
		t.Logf("%s: %d allocations at %d rows, %d at %d", tc.name, a, small, b, large)
		if b > a+growthSlack {
			t.Errorf("%s allocates per row: %d allocations at %d rows, %d at %d, want ≤ %d",
				tc.name, a, small, b, large, a+growthSlack)
		}
	}
}

// TestSignedZeroPredictorDoesNotHideSplits builds trees over a predictor
// z that is −0 for the first half of the rows and +0 for the second. The
// two zeros differ in bits but compare equal, so no threshold separates
// them: a split scored between them would send every row left and stop
// growth at a leaf, hiding the real splits on x.
func TestSignedZeroPredictorDoesNotHideSplits(t *testing.T) {
	const n = 200
	b := table.MustBuilder(table.Schema{
		{Name: "z", Kind: table.Numeric},
		{Name: "x", Kind: table.Numeric},
		{Name: "y", Kind: table.Numeric},
		{Name: "class", Kind: table.Categorical},
	})
	for i := 0; i < n; i++ {
		z, y, class := math.Copysign(0, -1), 100.0, "high"
		if i >= n/2 {
			z, y, class = 0, 0, "low"
		}
		b.MustAppendRow(z, float64(i%150), y, class)
	}
	tb := b.MustBuild()
	cm := NewCostModel(tb)
	for _, tc := range []struct {
		scorer string
		target int
		tol    float64
	}{
		{"SSE", 2, 1},
		{"Gini", 3, 0},
	} {
		m, _, err := Build(context.Background(), NewSample(tb), tc.target, []int{0, 1}, tc.tol, cm, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Root.Leaf || m.Root.SplitAttr != 1 {
			t.Errorf("%s: %d-node tree, root %+v; want a split on x", tc.scorer, m.NumNodes(), *m.Root)
		}
	}
}
