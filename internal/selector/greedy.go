package selector

import (
	"context"
	"fmt"
)

// Greedy is the paper's low-complexity CaRT-selection algorithm (§3.2):
// visit the attributes in the topological order of the Bayesian network;
// roots are materialized; every other attribute gets a CaRT built from the
// attributes materialized so far, and is predicted when the relative
// storage benefit MaterCost/PredCost is at least theta (core.Options
// supplies the paper's θ = 2, §4.1). At most n-1 CaRTs are built. ctx is
// checked before each attribute's CaRT construction, so a cancel abandons
// the traversal within one tree build and returns the wrapped context
// error.
func Greedy(ctx context.Context, in Input, theta float64) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	predicted := map[int]*estimate{}
	var materialized []int
	var w work
	for _, xi := range in.Net.TopoOrder() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("selector: greedy selection cancelled: %w", err)
		}
		if len(in.Net.Parents(xi)) == 0 {
			materialized = append(materialized, xi)
			continue
		}
		est, ok := buildEstimate(ctx, in, xi, materialized)
		w.add(est)
		if !ok || est.cost <= 0 {
			materialized = append(materialized, xi)
			continue
		}
		if in.materCost(xi)/est.cost >= theta {
			predicted[xi] = &est
		} else {
			materialized = append(materialized, xi)
		}
	}
	res := finishResult(in, predicted, w)
	return res, res.Validate()
}
