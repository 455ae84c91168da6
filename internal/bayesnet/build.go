package bayesnet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/table"
)

// The builder's settings, fixed at the values the compressor uses.
const (
	// bins is the number of equi-depth discretization bins for numeric
	// attributes. The paper's CI tests operate on discrete variables;
	// numeric columns are discretized first.
	bins = 8
	// epsilon is the mutual-information threshold (bits) below which two
	// variables are considered (conditionally) independent.
	epsilon = 0.015
	// maxCondSet caps the size of conditioning sets in CI tests. Larger
	// sets make tests unreliable on small samples (paper §3.1 cites
	// exactly this concern).
	maxCondSet = 3
	// maxParents caps the in-degree of any node after orientation; excess
	// edges with the weakest MI are dropped. This keeps CaRT predictor
	// sets small, mirroring the sparse networks the paper's selector
	// depends on.
	maxParents = 6
)

// Build infers a Bayesian network from the given table (typically a small
// random sample of the full data, per the paper). The number of CI tests is
// O(n²·maxCondSet) here — comfortably under the paper's O(n⁴) budget.
func Build(t *table.Table) (*Network, error) {
	n := t.NumCols()
	if n == 0 {
		return nil, fmt.Errorf("bayesnet: table has no attributes")
	}
	codes, cards := discretize(t)

	// Pairwise mutual information matrix.
	mi := make([][]float64, n)
	for i := range mi {
		mi[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := stats.MutualInformation(codes[i], codes[j], cards[i], cards[j])
			mi[i][j] = v
			mi[j][i] = v
		}
	}

	b := &builder{n: n, rows: t.NumRows(), codes: codes, cards: cards, mi: mi,
		adj: make([]map[int]bool, n)}
	for i := range b.adj {
		b.adj[i] = make(map[int]bool)
	}
	b.draft()
	b.thicken()
	b.thin()
	return b.orient(t)
}

type builder struct {
	n      int
	rows   int
	codes  [][]int
	cards  []int
	mi     [][]float64
	adj    []map[int]bool // undirected skeleton
	defer2 []pair         // pairs deferred from drafting to thickening
}

type pair struct {
	u, v int
	mi   float64
}

// sortedPairs returns all unordered pairs with MI above epsilon, strongest
// first (ties broken by indices for determinism).
func (b *builder) sortedPairs() []pair {
	var ps []pair
	for u := 0; u < b.n; u++ {
		for v := u + 1; v < b.n; v++ {
			if b.dependent(u, v) {
				ps = append(ps, pair{u, v, b.mi[u][v]})
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].mi != ps[j].mi {
			return ps[i].mi > ps[j].mi
		}
		if ps[i].u != ps[j].u {
			return ps[i].u < ps[j].u
		}
		return ps[i].v < ps[j].v
	})
	return ps
}

// draft adds an edge for each dependent pair unless the endpoints are
// already connected in the skeleton (Cheng et al. Phase I): such pairs are
// deferred to thickening, where a proper CI test decides.
func (b *builder) draft() {
	for _, p := range b.sortedPairs() {
		if b.connected(p.u, p.v) {
			b.defer2 = append(b.defer2, p)
			continue
		}
		b.adj[p.u][p.v] = true
		b.adj[p.v][p.u] = true
	}
}

// thicken revisits deferred pairs and adds an edge whenever the pair cannot
// be separated by conditioning on a cut set (Phase II).
func (b *builder) thicken() {
	for _, p := range b.defer2 {
		if b.separated(p.u, p.v) {
			continue
		}
		b.adj[p.u][p.v] = true
		b.adj[p.v][p.u] = true
	}
}

// thin re-examines every edge: with the rest of the skeleton available, if
// some conditioning set d-separates the endpoints, the edge is removed
// (Phase III). Edges are visited weakest-MI first so that spurious
// low-information edges are pruned before strong ones are re-tested.
func (b *builder) thin() {
	type edge struct {
		u, v int
		mi   float64
	}
	var edges []edge
	for u := 0; u < b.n; u++ {
		for v := range b.adj[u] {
			if u < v {
				edges = append(edges, edge{u, v, b.mi[u][v]})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].mi != edges[j].mi {
			return edges[i].mi < edges[j].mi
		}
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for _, e := range edges {
		// Temporarily remove the edge so the conditioning candidates are
		// the remaining neighbors.
		delete(b.adj[e.u], e.v)
		delete(b.adj[e.v], e.u)
		// Only edges with an alternative path between their endpoints are
		// candidates for removal (Cheng et al.): with no other path the
		// edge is the sole carrier of the observed dependence.
		if !b.connected(e.u, e.v) || !b.separated(e.u, e.v) {
			b.adj[e.u][e.v] = true
			b.adj[e.v][e.u] = true
		}
	}
}

// connected reports whether u and v are connected in the skeleton.
func (b *builder) connected(u, v int) bool {
	seen := make([]bool, b.n)
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		for w := range b.adj[x] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// separated runs MI-divergence CI tests of u ⟂ v conditioned on candidate
// cut sets drawn from the neighborhoods of u and v, and reports whether any
// test accepts independence. Candidate sets grow greedily by descending MI
// with the opposite endpoint, capped at maxCondSet (this avoids the
// exponential subset enumeration, as Cheng et al. do).
func (b *builder) separated(u, v int) bool {
	for _, base := range [2]int{u, v} {
		other := v
		if base == v {
			other = u
		}
		cands := b.neighborsByMI(base, other)
		if len(cands) == 0 {
			continue
		}
		limit := min(maxCondSet, len(cands))
		cond := make([]int, 0, limit)
		for k := 0; k < limit; k++ {
			cond = append(cond, cands[k])
			if b.ciIndependent(u, v, cond) {
				return true
			}
		}
	}
	return false
}

// neighborsByMI returns the skeleton neighbors of base (excluding `other`)
// sorted by descending MI with `other`.
func (b *builder) neighborsByMI(base, other int) []int {
	var out []int
	for w := range b.adj[base] {
		if w != other {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if b.mi[out[i]][other] != b.mi[out[j]][other] {
			return b.mi[out[i]][other] > b.mi[out[j]][other]
		}
		return out[i] < out[j]
	})
	return out
}

// gCritical is the significance level of the G-tests below. 0.995 keeps
// false edges out of the (sample-built) network while the MI floor epsilon
// removes statistically-significant-but-tiny dependencies that would never
// pay for a CaRT predictor.
const gSignificance = 0.995

// dependent applies a marginal G-test: u and v are dependent if their
// empirical MI both exceeds the epsilon floor and is statistically
// significant (G = 2·N·ln2·MI exceeds the chi-square critical value with
// (card(u)-1)(card(v)-1) degrees of freedom).
func (b *builder) dependent(u, v int) bool {
	mi := b.mi[u][v]
	if mi <= epsilon {
		return false
	}
	g := 2 * float64(b.rows) * math.Ln2 * mi
	dof := (b.cards[u] - 1) * (b.cards[v] - 1)
	return g > chiSquareQuantile(gSignificance, dof)
}

// ciIndependent tests u ⟂ v | cond with a conditional G-test; the degrees
// of freedom scale with the conditioning-set cardinality, which accounts
// for the positive small-sample bias of empirical conditional MI.
func (b *builder) ciIndependent(u, v int, cond []int) bool {
	condCols := make([][]int, len(cond))
	for i, c := range cond {
		condCols[i] = b.codes[c]
	}
	z, cz := stats.CompositeCodes(condCols)
	cmi := stats.ConditionalMutualInformation(b.codes[u], b.codes[v], z, b.cards[u], b.cards[v], cz)
	if cmi < epsilon {
		return true
	}
	g := 2 * float64(b.rows) * math.Ln2 * cmi
	dof := (b.cards[u] - 1) * (b.cards[v] - 1) * cz
	return g <= chiSquareQuantile(gSignificance, dof)
}

// orient turns the skeleton into a DAG. The full paper uses Bayesian
// scoring to orient edges; here every edge points from the
// higher-entropy endpoint to the lower (for adjacent X, Y the conditional
// entropies satisfy H(Y|X) < H(X|Y) ⟺ H(Y) < H(X), so this choice makes
// each child the endpoint its parent explains better — ties broken by
// total neighborhood MI, hubs first). A single global priority guarantees
// acyclicity. In-degrees are then capped at maxParents keeping the
// strongest-MI parents.
func (b *builder) orient(t *table.Table) (*Network, error) {
	prio := make([]float64, b.n)
	for u := 0; u < b.n; u++ {
		totalMI := 0.0
		for w := range b.adj[u] {
			totalMI += b.mi[u][w]
		}
		prio[u] = stats.Entropy(b.codes[u], b.cards[u]) + 1e-6*totalMI
	}
	order := make([]int, b.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return prio[order[i]] > prio[order[j]]
	})
	rank := make([]int, b.n)
	for r, node := range order {
		rank[node] = r
	}

	g := NewNetwork(t.Schema().Names())
	for u := 0; u < b.n; u++ {
		for v := range b.adj[u] {
			if u >= v {
				continue
			}
			from, to := u, v
			if rank[v] < rank[u] {
				from, to = v, u
			}
			if err := g.AddEdge(from, to); err != nil {
				return nil, err
			}
		}
	}
	b.capParents(g)
	return g, nil
}

// capParents trims each node's parent set to the maxParents strongest (by
// MI) parents.
func (b *builder) capParents(g *Network) {
	for v := 0; v < g.NumNodes(); v++ {
		ps := g.parents[v]
		if len(ps) <= maxParents {
			continue
		}
		sort.Slice(ps, func(i, j int) bool {
			if b.mi[ps[i]][v] != b.mi[ps[j]][v] {
				return b.mi[ps[i]][v] > b.mi[ps[j]][v]
			}
			return ps[i] < ps[j]
		})
		dropped := ps[maxParents:]
		g.parents[v] = append([]int(nil), ps[:maxParents]...)
		for _, u := range dropped {
			g.children[u] = removeInt(g.children[u], v)
		}
	}
}

func removeInt(s []int, x int) []int {
	out := s[:0]
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// discretize converts every column to integer codes: categorical columns
// use their dictionary codes, numeric columns are equi-depth discretized.
func discretize(t *table.Table) (codes [][]int, cards []int) {
	n := t.NumCols()
	codes = make([][]int, n)
	cards = make([]int, n)
	for i := 0; i < n; i++ {
		col := t.Col(i)
		if col.Kind == table.Categorical {
			cs := make([]int, len(col.Codes))
			for r, c := range col.Codes {
				cs[r] = int(c)
			}
			codes[i] = cs
			cards[i] = len(col.Dict)
			if cards[i] == 0 {
				cards[i] = 1
			}
			continue
		}
		d := stats.NewDiscretizer(col.Floats, bins)
		codes[i] = d.CodeAll(col.Floats)
		cards[i] = d.Bins()
	}
	return codes, cards
}
