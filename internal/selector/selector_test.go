package selector

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/floats"
	"repro/internal/table"
)

// --- Paper Examples 3.1 / 3.2: fixed-cost replay ---------------------------

// paperExampleInput builds the 4-attribute chain X1→X2→X3→X4 of Figure 3(a)
// with MaterCost 125 everywhere and the fixed prediction-cost table of
// Example 3.1, injected via the build/mater hooks.
func paperExampleInput(t *testing.T) Input {
	t.Helper()
	schema := table.Schema{
		{Name: "X1", Kind: table.Numeric},
		{Name: "X2", Kind: table.Numeric},
		{Name: "X3", Kind: table.Numeric},
		{Name: "X4", Kind: table.Numeric},
	}
	b := table.MustBuilder(schema)
	b.MustAppendRow(1.0, 1.0, 1.0, 1.0) // content is irrelevant to the stub
	tb := b.MustBuild()

	net := bayesnet.NewNetwork(schema.Names())
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := net.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	type entry struct {
		preds []int
		cost  float64
	}
	costs := map[int][]entry{
		1: {{[]int{0}, 75}},
		2: {{[]int{1}, 15}, {[]int{0}, 80}},
		3: {{[]int{1}, 80}, {[]int{0}, 125}, {[]int{2}, 75}},
	}
	leafModel := func(target int) *cart.Model {
		return &cart.Model{Target: target, TargetKind: table.Numeric,
			Root: &cart.Node{Leaf: true}}
	}
	buildFn := func(_ Input, target int, cands []int) (estimate, bool) {
		have := map[int]bool{}
		for _, c := range cands {
			have[c] = true
		}
		best := estimate{cost: math.Inf(1)}
		found := false
		for _, e := range costs[target] {
			ok := true
			for _, p := range e.preds {
				if !have[p] {
					ok = false
				}
			}
			if ok && e.cost < best.cost {
				best = estimate{model: leafModel(target), used: e.preds, cost: e.cost}
				found = true
			}
		}
		return best, found
	}
	return Input{
		Sample:  cart.NewSample(tb),
		Tol:     table.ZeroTolerances(tb),
		Net:     net,
		Cost:    cart.NewCostModel(tb),
		buildFn: buildFn,
		materFn: func(int) float64 { return 125 },
	}
}

// TestPaperExample31Greedy replays Example 3.1: θ=1.5 predicts X2 and X3,
// materializes X1 and X4, total cost 405.
func TestPaperExample31Greedy(t *testing.T) {
	in := paperExampleInput(t)
	res, err := Greedy(context.Background(), in, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	wantPredicted(t, res, []int{1, 2})
	if !floats.SameBits(res.EstimatedCost, 405) {
		t.Errorf("Greedy cost = %g, want 405 (paper Example 3.1)", res.EstimatedCost)
	}
}

// TestPaperExample32MaxIndependentSet replays Example 3.2: the algorithm
// converges to predicting X3 and X4 (both from X2) for the optimal total
// cost of 345.
func TestPaperExample32MaxIndependentSet(t *testing.T) {
	in := paperExampleInput(t)
	res, err := MaxIndependentSet(context.Background(), in, Parents)
	if err != nil {
		t.Fatal(err)
	}
	wantPredicted(t, res, []int{2, 3})
	if !floats.SameBits(res.EstimatedCost, 345) {
		t.Errorf("MaxIndependentSet cost = %g, want 345 (paper Example 3.2)", res.EstimatedCost)
	}
}

// TestPaperMISBeatsGreedy is the paper's point: on Example 3.1's instance,
// WMIS selection strictly beats Greedy (345 < 405).
func TestPaperMISBeatsGreedy(t *testing.T) {
	in := paperExampleInput(t)
	rg, err := Greedy(context.Background(), in, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := MaxIndependentSet(context.Background(), in, Parents)
	if err != nil {
		t.Fatal(err)
	}
	if rm.EstimatedCost >= rg.EstimatedCost {
		t.Errorf("MIS cost %g not better than Greedy %g", rm.EstimatedCost, rg.EstimatedCost)
	}
}

func wantPredicted(t *testing.T, res *Result, want []int) {
	t.Helper()
	if len(res.Predicted) != len(want) {
		t.Fatalf("Predicted = %v, want %v", res.Predicted, want)
	}
	for i := range want {
		if res.Predicted[i] != want[i] {
			t.Fatalf("Predicted = %v, want %v", res.Predicted, want)
		}
	}
}

// --- End-to-end selection on real tables ------------------------------------

// dependentTable: y = 2x (+tiny noise), c determined by x, z independent.
func dependentTable(rng *rand.Rand, n int) *table.Table {
	schema := table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "y", Kind: table.Numeric},
		{Name: "c", Kind: table.Categorical},
		{Name: "z", Kind: table.Numeric},
	}
	b := table.MustBuilder(schema)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		cat := "lo"
		if x > 50 {
			cat = "hi"
		}
		b.MustAppendRow(x, 2*x+rng.Float64(), cat, rng.Float64()*1000)
	}
	return b.MustBuild()
}

func realInput(t *testing.T, tb *table.Table) Input {
	t.Helper()
	net, err := bayesnet.Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	tol, err := table.UniformTolerances(tb, 0.01, 0).Resolve(tb)
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		Sample:  cart.NewSample(tb),
		Tol:     tol,
		Net:     net,
		Cost:    cart.NewCostModel(tb),
		CartCfg: cart.Config{FullRows: tb.NumRows()},
	}
}

func TestMaxIndependentSetOnRealData(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tb := dependentTable(rng, 800)
	in := realInput(t, tb)
	res, err := MaxIndependentSet(context.Background(), in, Parents)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) == 0 {
		t.Error("no attributes predicted despite strong x→y and x→c dependencies")
	}
	// z (independent noise) must never be predicted.
	for _, p := range res.Predicted {
		if p == 3 {
			t.Error("independent attribute z selected for prediction")
		}
	}
	// Total cost must beat materializing everything.
	allMat := 0.0
	for i := 0; i < tb.NumCols(); i++ {
		allMat += in.Cost.MaterCost(i)
	}
	if res.EstimatedCost >= allMat {
		t.Errorf("estimated cost %.0f does not beat all-materialized %.0f",
			res.EstimatedCost, allMat)
	}
}

func TestGreedyOnRealData(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tb := dependentTable(rng, 800)
	in := realInput(t, tb)
	res, err := Greedy(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.CartsBuilt >= tb.NumCols() {
		t.Errorf("Greedy built %d CaRTs, must be < n = %d", res.CartsBuilt, tb.NumCols())
	}
	// NodesGrown counts every tree built: the kept ones and the rest.
	kept := 0
	for _, m := range res.Models {
		kept += m.NumNodes()
	}
	if res.NodesGrown < kept || res.NodesGrown < res.CartsBuilt {
		t.Errorf("NodesGrown = %d with %d CaRTs built and %d nodes kept", res.NodesGrown, res.CartsBuilt, kept)
	}
	// Partition covers all attributes exactly once.
	if len(res.Predicted)+len(res.Materialized) != tb.NumCols() {
		t.Errorf("partition sizes %d+%d != %d",
			len(res.Predicted), len(res.Materialized), tb.NumCols())
	}
}

func TestMarkovBlanketNeighborhood(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tb := dependentTable(rng, 600)
	in := realInput(t, tb)
	res, err := MaxIndependentSet(context.Background(), in, MarkovBlanket)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tb := dependentTable(rng, 50)
	in := realInput(t, tb)

	bad := in
	bad.Net = bayesnet.NewNetwork([]string{"only"})
	if _, err := Greedy(context.Background(), bad, 2); err == nil {
		t.Error("Greedy accepted mismatched network")
	}
	bad2 := in
	bad2.Tol = table.Tolerances{{Value: 1}}
	if _, err := MaxIndependentSet(context.Background(), bad2, Parents); err == nil {
		t.Error("MaxIndependentSet accepted wrong-length tolerances")
	}
	bad3 := in
	bad3.Tol = append(table.Tolerances(nil), in.Tol...)
	bad3.Tol[0] = table.Tolerance{Value: 0.1, Quantile: true}
	if _, err := Greedy(context.Background(), bad3, 2); err == nil {
		t.Error("Greedy accepted unresolved quantile tolerance")
	}
	bad4 := in
	bad4.Sample = nil
	if _, err := Greedy(context.Background(), bad4, 2); err == nil {
		t.Error("Greedy accepted nil sample")
	}
}

func TestNeighborhoodString(t *testing.T) {
	if Parents.String() != "parents" || MarkovBlanket.String() != "markov" {
		t.Error("Neighborhood String() wrong")
	}
}

func TestResultValidateCatchesCrossPrediction(t *testing.T) {
	// A model for attribute 1 that splits on attribute 2 while 2 is also
	// predicted must be rejected.
	m1 := &cart.Model{Target: 1, TargetKind: table.Numeric, Root: &cart.Node{
		SplitAttr: 2,
		Left:      &cart.Node{Leaf: true},
		Right:     &cart.Node{Leaf: true},
	}}
	m2 := &cart.Model{Target: 2, TargetKind: table.Numeric,
		Root: &cart.Node{Leaf: true}}
	r := &Result{Predicted: []int{1, 2}, Models: map[int]*cart.Model{1: m1, 2: m2}}
	if err := r.Validate(); err == nil {
		t.Error("Validate accepted predicted attribute used as predictor")
	}
	r2 := &Result{Predicted: []int{1}, Models: map[int]*cart.Model{}}
	if err := r2.Validate(); err == nil {
		t.Error("Validate accepted missing model")
	}
}
