// Package selector implements SPARTAN's CaRTSelector component (paper
// §3.2): choosing which attributes to predict via CaRTs and which to
// materialize, so that total storage (materialization + prediction cost)
// is minimized within the error bounds.
//
// Two strategies are provided, exactly as in the paper:
//
//   - Greedy: a single roots-to-leaves traversal of the Bayesian network;
//     an attribute is predicted when its materialization/prediction cost
//     ratio is at least θ.
//   - MaxIndependentSet: iterated WMIS instances over the "predicted-by"
//     benefit graph (Figure 4), including the transitive predictor
//     re-wiring (NEW_PRED) across iterations.
package selector

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/table"
)

// Neighborhood selects the "predictive neighborhood" of a node in the
// Bayesian network used by MaxIndependentSet (paper §3.2).
type Neighborhood int

const (
	// Parents uses π(Xᵢ).
	Parents Neighborhood = iota
	// MarkovBlanket uses β(Xᵢ) (parents + children + co-parents).
	MarkovBlanket
)

// String returns "parents" or "markov".
func (n Neighborhood) String() string {
	if n == MarkovBlanket {
		return "markov"
	}
	return "parents"
}

// Input carries everything the selection algorithms need.
type Input struct {
	// Sample is the (small) table sample CaRTs are trained on, sorted
	// once and shared read-only by every build of the search.
	Sample *cart.Sample
	// Tol holds resolved per-attribute tolerances.
	Tol table.Tolerances
	// Net is the Bayesian network from the DependencyFinder.
	Net *bayesnet.Network
	// Cost is the storage cost model derived from the full table.
	Cost *cart.CostModel
	// CartCfg configures tree construction (FullRows should be set to the
	// full table's row count).
	CartCfg cart.Config
	// Holdout, if non-nil, is a sample disjoint from Sample used to
	// estimate each candidate CaRT's true outlier rate. Training-set
	// estimates are optimistic (the tree was fit to them); holdout
	// validation keeps the selector from predicting attributes whose
	// models would drown in outliers on the full table.
	Holdout *table.Table

	// buildFn and materFn let tests substitute CaRT construction and
	// materialization costs with fixed tables (used to replay the paper's
	// worked Examples 3.1/3.2).
	buildFn func(Input, int, []int) (estimate, bool)
	materFn func(int) float64
}

// materCost returns the materialization cost of attribute i.
func (in Input) materCost(i int) float64 {
	if in.materFn != nil {
		return in.materFn(i)
	}
	return in.Cost.MaterCost(i)
}

func (in Input) validate() error {
	if in.Sample == nil || in.Net == nil || in.Cost == nil {
		return fmt.Errorf("selector: Sample, Net and Cost are required")
	}
	n := in.Sample.Table().NumCols()
	if in.Net.NumNodes() != n {
		return fmt.Errorf("selector: network has %d nodes, table has %d attributes", in.Net.NumNodes(), n)
	}
	if len(in.Tol) != n {
		return fmt.Errorf("selector: %d tolerances for %d attributes", len(in.Tol), n)
	}
	for i, e := range in.Tol {
		if e.Quantile {
			return fmt.Errorf("selector: tolerance %d is unresolved (quantile form)", i)
		}
	}
	return nil
}

// Result is a complete prediction plan.
type Result struct {
	// Predicted lists predicted attribute indices (sorted); Models[i] is
	// the CaRT for attribute i: a tree only, shared read-only by every
	// outlier scan over the rows it is applied to.
	Predicted []int
	Models    map[int]*cart.Model
	// Materialized lists the remaining attributes (sorted).
	Materialized []int
	// CartsBuilt counts CaRT constructions performed during the search
	// (the paper reports these in §4.2).
	CartsBuilt int
	// NodesGrown sums the nodes of every tree the search built, kept in
	// the plan or not; with the sample's rows it bounds the search's work.
	NodesGrown int
	// EstimatedCost is the estimated total storage in bits
	// (materialization of Materialized + prediction of Predicted).
	EstimatedCost float64
}

// Validate checks the structural invariants the paper requires: no
// predicted attribute is used as a predictor, and every model's predictors
// are materialized.
func (r *Result) Validate() error {
	pred := map[int]bool{}
	for _, p := range r.Predicted {
		pred[p] = true
	}
	for _, p := range r.Predicted {
		m := r.Models[p]
		if m == nil {
			return fmt.Errorf("selector: predicted attribute %d has no model", p)
		}
		for _, u := range m.UsedPredictors() {
			if pred[u] {
				return fmt.Errorf("selector: predicted attribute %d uses predicted attribute %d", p, u)
			}
		}
	}
	return nil
}

// estimate holds one built CaRT plus its estimated prediction cost.
type estimate struct {
	model *cart.Model
	used  []int
	cost  float64
	nodes int // the model's node count, 0 when no tree was built
}

// buildEstimate builds a CaRT for target from cands and packages the
// result; an empty candidate set yields cost +Inf (the paper's PredCost=∞
// convention for root attributes). A build abandoned by ctx cancellation
// also reports ok=false; callers check ctx at their loop boundaries and
// surface the context error from there.
func buildEstimate(ctx context.Context, in Input, target int, cands []int) (estimate, bool) {
	if in.buildFn != nil {
		return in.buildFn(in, target, cands)
	}
	if len(cands) == 0 {
		return estimate{cost: math.Inf(1)}, false
	}
	m, cost, err := cart.Build(ctx, in.Sample, target, cands, in.Tol[target].Value, in.Cost, in.CartCfg)
	if err != nil {
		return estimate{cost: math.Inf(1)}, false
	}
	if in.Holdout != nil && in.Holdout.NumRows() > 0 {
		violations := m.CountViolations(in.Holdout, in.Tol[target].Value)
		scale := float64(in.Cost.NumRows()) / float64(in.Holdout.NumRows())
		cost = in.Cost.ModelTreeBits(m) +
			scale*float64(violations)*in.Cost.OutlierBits(target)
	}
	return estimate{model: m, used: m.UsedPredictors(), cost: cost, nodes: m.NumNodes()}, true
}

// work counts the CaRTs a search built and their nodes.
type work struct {
	built, nodes int
}

// add counts one build attempt that produced est.
func (w *work) add(est estimate) {
	w.built++
	w.nodes += est.nodes
}

// merge adds o's counts to w.
func (w *work) merge(o work) {
	w.built += o.built
	w.nodes += o.nodes
}

// finishResult assembles a Result from the final partition.
func finishResult(in Input, predicted map[int]*estimate, w work) *Result {
	n := in.Sample.Table().NumCols()
	res := &Result{Models: map[int]*cart.Model{}, CartsBuilt: w.built, NodesGrown: w.nodes}
	total := 0.0
	for i := 0; i < n; i++ {
		if est, ok := predicted[i]; ok {
			res.Predicted = append(res.Predicted, i)
			res.Models[i] = est.model
			total += est.cost
		} else {
			res.Materialized = append(res.Materialized, i)
			total += in.materCost(i)
		}
	}
	sort.Ints(res.Predicted)
	sort.Ints(res.Materialized)
	res.EstimatedCost = total
	return res
}
