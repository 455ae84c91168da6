package table

import (
	"fmt"
	"math"
)

// Tolerance is the per-attribute acceptable information loss (the eᵢ of the
// paper, §2.1). For numeric attributes it bounds the absolute difference
// between original and reconstructed values; for categorical attributes it
// bounds the probability that a reconstructed value differs from the
// original.
type Tolerance struct {
	// Value is the error bound: an absolute difference for numeric
	// attributes, a probability in [0, 1] for categorical attributes.
	Value float64
	// Quantile, if true, marks a numeric tolerance expressed as a fraction
	// of the attribute's observed value range rather than an absolute
	// difference (the paper's percent-of-range parameterization in §4.1).
	// Resolve converts it to an absolute bound.
	Quantile bool
	// PerClass optionally overrides the mismatch probability for
	// individual classes of a categorical attribute (the paper's §2.1
	// "more local" categorical bounds): for every class value c, at most
	// PerClass[c] of the rows whose original value is c may decompress to
	// a different value. Classes not listed use Value.
	PerClass map[string]float64
}

// Tolerances maps each attribute (by schema position) to its tolerance.
type Tolerances []Tolerance

// UniformTolerances builds a tolerance vector for the given table: every
// numeric attribute gets numericFrac of its value range, every categorical
// attribute gets catProb. This matches the experimental setup in §4.1 of
// the paper (e.g. 1% numeric tolerance, 0 categorical tolerance).
func UniformTolerances(t *Table, numericFrac, catProb float64) Tolerances {
	return UniformTolerancesSchema(t.Schema(), numericFrac, catProb)
}

// UniformTolerancesSchema is UniformTolerances from a schema alone, for
// callers that know the attribute kinds without materializing rows.
func UniformTolerancesSchema(s Schema, numericFrac, catProb float64) Tolerances {
	tol := make(Tolerances, len(s))
	for i := range s {
		if s[i].Kind == Numeric {
			tol[i] = Tolerance{Value: numericFrac, Quantile: true}
		} else {
			tol[i] = Tolerance{Value: catProb}
		}
	}
	return tol
}

// ZeroTolerances builds an all-zero (lossless) tolerance vector.
func ZeroTolerances(t *Table) Tolerances {
	return make(Tolerances, t.NumCols())
}

// ClassBudgets converts a categorical tolerance into per-code mismatch
// probabilities for the given dictionary, indexed by code: PerClass
// overrides where present, Value elsewhere. It returns nil when no
// per-class overrides exist (callers then use the scalar Value).
func (e Tolerance) ClassBudgets(dict []string) []float64 {
	if len(e.PerClass) == 0 {
		return nil
	}
	out := make([]float64, len(dict))
	for code, name := range dict {
		out[code] = e.Value
		if v, ok := e.PerClass[name]; ok {
			out[code] = v
		}
	}
	return out
}

// Bound returns the largest error e allows on any value: Value, or for a
// categorical tolerance with per-class overrides the largest of Value and
// every PerClass probability. A column whose every class c keeps at most
// PerClass[c] of its rows misclassified has at most Bound() of all its
// rows misclassified, so Bound is the one mismatch rate a reader may
// assume without knowing the class of each row. Call it on a resolved
// tolerance: a quantile form's Value is a fraction, not a bound.
func (e Tolerance) Bound() float64 {
	b := e.Value
	for _, p := range e.PerClass {
		b = math.Max(b, p)
	}
	return b
}

// Resolve converts quantile-form numeric tolerances into absolute bounds
// using the observed column ranges of t, and validates the vector. The
// returned slice has Quantile=false everywhere.
func (tol Tolerances) Resolve(t *Table) (Tolerances, error) {
	if len(tol) != t.NumCols() {
		return nil, fmt.Errorf("table: %d tolerances for %d attributes", len(tol), t.NumCols())
	}
	ranges := make([]float64, t.NumCols())
	for i := range ranges {
		if t.Attr(i).Kind == Numeric {
			ranges[i] = t.Col(i).Range()
		}
	}
	return tol.ResolveRanges(t.Schema(), ranges)
}

// ResolveRanges is Resolve against explicit per-attribute value ranges
// instead of an observed table, for callers that know the ranges without
// materializing rows (e.g. from an archive footer's zone maps, where
// resolving against a pruned subset's narrower range would understate
// the error bound). ranges[i] is the value range (hi − lo) of numeric
// attribute i and is ignored for categorical attributes.
func (tol Tolerances) ResolveRanges(schema Schema, ranges []float64) (Tolerances, error) {
	if len(tol) != len(schema) {
		return nil, fmt.Errorf("table: %d tolerances for %d attributes", len(tol), len(schema))
	}
	if len(ranges) != len(schema) {
		return nil, fmt.Errorf("table: %d ranges for %d attributes", len(ranges), len(schema))
	}
	out := make(Tolerances, len(tol))
	for i, e := range tol {
		attr := schema[i]
		if e.Value < 0 || math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			return nil, fmt.Errorf("table: attribute %q has tolerance %g, want a finite value >= 0", attr.Name, e.Value)
		}
		switch attr.Kind {
		case Numeric:
			if e.PerClass != nil {
				return nil, fmt.Errorf("table: attribute %q is numeric; per-class tolerances apply to categorical attributes", attr.Name)
			}
			v := e.Value
			if e.Quantile {
				v *= ranges[i]
			}
			out[i] = Tolerance{Value: v}
		case Categorical:
			if e.Quantile {
				return nil, fmt.Errorf("table: attribute %q is categorical; quantile tolerances apply to numeric attributes", attr.Name)
			}
			if e.Value > 1 {
				return nil, fmt.Errorf("table: attribute %q has categorical tolerance %g > 1", attr.Name, e.Value)
			}
			for class, p := range e.PerClass {
				if !(p >= 0 && p <= 1) { // also refuses NaN
					return nil, fmt.Errorf("table: attribute %q class %q has tolerance %g outside [0, 1]", attr.Name, class, p)
				}
			}
			out[i] = e
		}
	}
	return out, nil
}
