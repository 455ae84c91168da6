package bayesnet

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

func TestNetworkAddEdge(t *testing.T) {
	g := NewNetwork([]string{"a", "b", "c"})
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 0); err == nil {
		t.Error("AddEdge accepted a cycle")
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("AddEdge accepted a duplicate edge")
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("AddEdge accepted a self edge")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Error("AddEdge accepted out-of-range node")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestMarkovBlanket(t *testing.T) {
	// Classic structure: 0->2, 1->2, 2->3, 4 isolated.
	g := NewNetwork([]string{"a", "b", "c", "d", "e"})
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)

	// β(0) = parents(∅) ∪ children{2} ∪ co-parents{1}.
	wantSet(t, g.MarkovBlanket(0), []int{1, 2}, "MB(0)")
	// β(2) = {0,1} ∪ {3} ∪ ∅.
	wantSet(t, g.MarkovBlanket(2), []int{0, 1, 3}, "MB(2)")
	// β(4) = ∅.
	wantSet(t, g.MarkovBlanket(4), nil, "MB(4)")
}

func TestTopoOrder(t *testing.T) {
	g := NewNetwork([]string{"a", "b", "c", "d"})
	mustEdge(t, g, 2, 0)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 3)
	order := g.TopoOrder()
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topo order %v", e, order)
		}
	}
	// Determinism.
	order2 := g.TopoOrder()
	for i := range order {
		if order[i] != order2[i] {
			t.Fatal("TopoOrder not deterministic")
		}
	}
}

func mustEdge(t *testing.T, g *Network, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func wantSet(t *testing.T, got, want []int, msg string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s = %v, want %v", msg, got, want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s = %v, want %v", msg, got, want)
			return
		}
	}
}

// chainTable builds a table with a strong dependency chain
// c0 -> c1 -> c2 and an independent column "noise".
func chainTable(rng *rand.Rand, n int) *table.Table {
	schema := table.Schema{
		{Name: "c0", Kind: table.Categorical},
		{Name: "c1", Kind: table.Categorical},
		{Name: "c2", Kind: table.Categorical},
		{Name: "noise", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	labels := []string{"x", "y", "z", "w"}
	for i := 0; i < n; i++ {
		v := rng.Intn(4)
		b.MustAppendRow(labels[v], labels[v], labels[v], labels[rng.Intn(4)])
	}
	return b.MustBuild()
}

func TestBuildFindsChainAndIgnoresNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb := chainTable(rng, 600)
	g, err := Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	// The noise column should be disconnected.
	if len(g.Parents(3)) != 0 || len(g.Children(3)) != 0 {
		t.Errorf("noise column connected: parents=%v children=%v",
			g.Parents(3), g.Children(3))
	}
	// The dependent trio must be connected (as some DAG over {0,1,2}).
	deg := 0
	for i := 0; i < 3; i++ {
		deg += len(g.Parents(i)) + len(g.Children(i))
	}
	if deg < 4 { // at least 2 edges among the trio
		t.Errorf("dependency chain underdetected, network:\n%s", g)
	}
}

func TestBuildNumericDependency(t *testing.T) {
	schema := table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "y", Kind: table.Numeric},
		{Name: "indep", Kind: table.Numeric},
	}
	b := table.MustBuilder(schema)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 800; i++ {
		x := rng.Float64() * 100
		b.MustAppendRow(x, 2*x+rng.Float64(), rng.Float64()*100)
	}
	tb := b.MustBuild()
	g, err := Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	// x and y must be adjacent in some direction.
	adj := false
	for _, e := range g.Edges() {
		if (e[0] == 0 && e[1] == 1) || (e[0] == 1 && e[1] == 0) {
			adj = true
		}
		if e[0] == 2 || e[1] == 2 {
			t.Errorf("independent column got edge %v", e)
		}
	}
	if !adj {
		t.Errorf("x-y dependency missed, network:\n%s", g)
	}
}

func TestBuildThinsTransitiveEdge(t *testing.T) {
	// X -> Z -> Y with Y a noisy copy of Z: after thinning, the X-Y edge
	// should be removed because Z separates them.
	schema := table.Schema{
		{Name: "x", Kind: table.Categorical},
		{Name: "z", Kind: table.Categorical},
		{Name: "y", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	rng := rand.New(rand.NewSource(17))
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < 2000; i++ {
		x := rng.Intn(4)
		z := x
		if rng.Float64() < 0.15 {
			z = rng.Intn(4)
		}
		y := z
		if rng.Float64() < 0.15 {
			y = rng.Intn(4)
		}
		b.MustAppendRow(labels[x], labels[z], labels[y])
	}
	tb := b.MustBuild()
	g, err := Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if (e[0] == 0 && e[1] == 2) || (e[0] == 2 && e[1] == 0) {
			t.Errorf("transitive x-y edge survived thinning:\n%s", g)
		}
	}
}

func TestBuildMaxParentsCap(t *testing.T) {
	// maxParents+3 identical columns: every pair is dependent, and the
	// network must keep the cap.
	clones, ok := fuzzTable(cloneSeed(maxParents+3, 0xFFFF, 400))
	if !ok {
		t.Fatal("clone table refused")
	}
	g, err := Build(clones)
	if err != nil {
		t.Fatal(err)
	}
	checkNetwork(t, g)

	// maxParents+3 noisy copies of column 0 all point at it: the cap
	// must trim its parents to exactly maxParents.
	star, ok := fuzzTable(starSeed(maxParents+3, 0xFFFF, 200))
	if !ok {
		t.Fatal("star table refused")
	}
	g, err = Build(star)
	if err != nil {
		t.Fatal(err)
	}
	checkNetwork(t, g)
	if got := len(g.Parents(0)); got != maxParents {
		t.Errorf("column 0 has %d parents, want the cap %d; network:\n%s", got, maxParents, g)
	}
}

// checkNetwork asserts the invariants every built network keeps: it is
// acyclic, no node has more than maxParents parents, and the parent and
// child lists describe the same edges.
func checkNetwork(t *testing.T, g *Network) {
	t.Helper()
	if got := len(g.TopoOrder()); got != g.NumNodes() {
		t.Fatalf("TopoOrder covers %d of %d nodes", got, g.NumNodes())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if len(g.Parents(v)) > maxParents {
			t.Errorf("node %d has %d parents, cap is %d", v, len(g.Parents(v)), maxParents)
		}
		for _, p := range g.Parents(v) {
			if !slices.Contains(g.Children(p), v) {
				t.Errorf("edge %d→%d in parents but not children", p, v)
			}
		}
		for _, c := range g.Children(v) {
			if !slices.Contains(g.Parents(c), v) {
				t.Errorf("edge %d→%d in children but not parents", v, c)
			}
		}
	}
}

func TestBuildAlwaysAcyclicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := table.Schema{
			{Name: "a", Kind: table.Categorical},
			{Name: "b", Kind: table.Categorical},
			{Name: "c", Kind: table.Numeric},
			{Name: "d", Kind: table.Numeric},
		}
		b := table.MustBuilder(schema)
		labels := []string{"u", "v", "w"}
		for i := 0; i < 200; i++ {
			x := rng.Intn(3)
			b.MustAppendRow(labels[x], labels[rng.Intn(3)],
				float64(x)+rng.Float64(), rng.Float64()*10)
		}
		tb := b.MustBuild()
		g, err := Build(tb)
		if err != nil {
			return false
		}
		// TopoOrder panics on cycles; reaching here with full length is the
		// acyclicity proof.
		return len(g.TopoOrder()) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBuildEmptyTableErrors(t *testing.T) {
	b := table.MustBuilder(table.Schema{{Name: "a", Kind: table.Numeric}})
	tb := b.MustBuild()
	// Zero rows is fine (no edges), zero columns is impossible by schema
	// validation, so just check it runs.
	g, err := Build(tb)
	if err != nil {
		t.Fatalf("Build on empty table: %v", err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("empty table produced %d edges", g.NumEdges())
	}
}

func TestBuildDeterministic(t *testing.T) {
	tb := chainTable(rand.New(rand.NewSource(9)), 400)
	g1, err := Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestOrientationPrefersHighEntropyParents(t *testing.T) {
	// A fine-grained driver column and a coarse recode of it: the edge
	// must point driver -> recode (predict low entropy from high).
	schema := table.Schema{
		{Name: "driver", Kind: table.Categorical},
		{Name: "recode", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	rng := rand.New(rand.NewSource(44))
	fine := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 800; i++ {
		v := rng.Intn(8)
		coarse := "lo"
		if v >= 4 {
			coarse = "hi"
		}
		b.MustAppendRow(fine[v], coarse)
	}
	tb := b.MustBuild()
	g, err := Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if len(edges) != 1 {
		t.Fatalf("edges = %v, want exactly driver->recode", edges)
	}
	if edges[0] != [2]int{0, 1} {
		t.Errorf("edge = %v, want driver(0) -> recode(1)", edges[0])
	}
}
