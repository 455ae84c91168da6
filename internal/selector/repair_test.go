package selector

import (
	"context"
	"math"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/table"
)

// repairInput builds a 3-attribute stub where the cost table can be
// switched mid-run to force the NEW_PRED rebuild path to fail, leaving a
// predicted attribute using another predicted attribute until repairPlan
// fixes it.
func repairInput(t *testing.T) Input {
	t.Helper()
	schema := table.Schema{
		{Name: "A", Kind: table.Numeric},
		{Name: "B", Kind: table.Numeric},
		{Name: "C", Kind: table.Numeric},
	}
	b := table.MustBuilder(schema)
	b.MustAppendRow(1.0, 1.0, 1.0)
	tb := b.MustBuild()
	net := bayesnet.NewNetwork(schema.Names())
	if err := net.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	return Input{
		Sample: cart.NewSample(tb),
		Tol:    table.ZeroTolerances(tb),
		Net:    net,
		Cost:   cart.NewCostModel(tb),
	}
}

func leaf(target int) *cart.Model {
	return &cart.Model{Target: target, TargetKind: table.Numeric,
		Root: &cart.Node{Leaf: true}}
}

func TestRepairPlanRebuilds(t *testing.T) {
	in := repairInput(t)
	// C is predicted from B, but B just moved to the predicted side
	// (predicted from A). repairPlan must rebuild C's model from A.
	in.buildFn = func(_ Input, target int, cands []int) (estimate, bool) {
		if len(cands) == 0 {
			return estimate{cost: math.Inf(1)}, false
		}
		return estimate{model: leaf(target), used: []int{cands[0]}, cost: 10}, true
	}
	mat := map[int]bool{0: true}
	predicted := map[int]*estimate{
		1: {model: leaf(1), used: []int{0}, cost: 10},
		2: {model: leaf(2), used: []int{1}, cost: 10}, // violates: 1 is predicted
	}
	w := repairPlan(context.Background(), in, mat, predicted)
	if w.built == 0 {
		t.Error("repairPlan built nothing despite a violation")
	}
	for xj, est := range predicted {
		for _, u := range est.used {
			if !mat[u] {
				t.Errorf("after repair, predicted %d still uses non-materialized %d", xj, u)
			}
		}
	}
	if _, ok := predicted[2]; !ok {
		t.Error("repair dropped attribute 2 although a rebuild was possible")
	}
}

func TestRepairPlanRevertsWhenRebuildImpossible(t *testing.T) {
	in := repairInput(t)
	// Rebuilds always fail: the offender must revert to materialized.
	in.buildFn = func(_ Input, _ int, _ []int) (estimate, bool) {
		return estimate{cost: math.Inf(1)}, false
	}
	mat := map[int]bool{0: true}
	predicted := map[int]*estimate{
		2: {model: leaf(2), used: []int{1}, cost: 10}, // 1 is not materialized
	}
	repairPlan(context.Background(), in, mat, predicted)
	if _, ok := predicted[2]; ok {
		t.Error("unsalvageable predicted attribute was not reverted")
	}
	if !mat[2] {
		t.Error("reverted attribute did not return to the materialized set")
	}
}

func TestMaterNeighbors(t *testing.T) {
	mat := map[int]bool{0: true, 3: true}
	predicted := map[int]*estimate{
		1: {used: []int{0, 3}},
	}
	// Neighborhood of X2: materialized 0, predicted 1 (replaced by its
	// predictors 0 and 3), and X2 itself must be excluded.
	got := materNeighbors(2, []int{0, 1, 2}, mat, predicted)
	want := []int{0, 3}
	if len(got) != len(want) || got[0] != 0 || got[1] != 3 {
		t.Errorf("materNeighbors = %v, want %v", got, want)
	}
	// A predicted neighbor whose predictors include xi itself must not
	// leak xi back in.
	predicted[1] = &estimate{used: []int{0, 2}}
	got = materNeighbors(2, []int{1}, mat, predicted)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("materNeighbors = %v, want [0]", got)
	}
}

func TestSetHelpers(t *testing.T) {
	if !contains([]int{1, 2, 3}, 2) || contains([]int{1, 3}, 2) {
		t.Error("contains wrong")
	}
	got := remove([]int{1, 2, 3, 2}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("remove = %v", got)
	}
	u := union([]int{3, 1}, []int{2, 1})
	if len(u) != 3 || u[0] != 1 || u[1] != 2 || u[2] != 3 {
		t.Errorf("union = %v", u)
	}
}
