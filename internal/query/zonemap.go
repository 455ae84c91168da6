// Zone-map predicate refutation: given per-segment column summaries
// (numeric min/max, categorical membership fingerprints), decide whether
// a predicate could possibly match any row of the segment. Archive
// readers use this to skip decoding segments a WHERE clause provably
// excludes. The logic mirrors the per-row three-valued evaluation at
// interval granularity: a segment is refuted only when every row it
// could contain evaluates to a definite no under the same tolerance the
// row-level engine would apply, so pruning never changes a query's
// definite or uncertain row sets.
package query

import "repro/internal/table"

// ColumnZone bounds what one column of a row segment can contain.
type ColumnZone struct {
	// Kind is the column's attribute kind.
	Kind table.Kind
	// Lo and Hi bound every decoded numeric value of the segment
	// (already widened by the compression tolerance at write time).
	Lo, Hi float64
	// MayContain is a definite-absence test for categorical values:
	// false means no row of the segment holds the value. Nil means
	// unknown (never refute).
	MayContain func(value string) bool
}

// CanMatch reports whether p could match at least one row of a segment
// whose per-column contents are bounded by zones; tol maps column name
// to the resolved absolute tolerance the row-level evaluation will use.
// It errs toward true: only a provable all-rows-definitely-fail verdict
// returns false, and unknown columns or nil zone lookups never refute.
func CanMatch(p Predicate, zones func(column string) (ColumnZone, bool), tol map[string]float64) bool {
	if p == nil || zones == nil {
		return true
	}
	return zoneEval(p, zones, tol) != no
}

// zoneEval evaluates p over a whole segment: yes when every possible row
// matches, no when none can, maybe otherwise. Numeric comparisons take
// the row evaluator's verdict over the zone's value range;
// categorical membership refutes only at zero tolerance, because a flip
// budget lets rows smuggle values the fingerprint never saw.
func zoneEval(p Predicate, zones func(string) (ColumnZone, bool), tol map[string]float64) tri {
	switch v := p.(type) {
	case *numCmp:
		z, ok := zones(v.column)
		if !ok || z.Kind != table.Numeric {
			return maybe
		}
		// Every row's certain interval [x−e, x+e] lies within
		// [z.Lo−e, z.Hi+e]: "yes" means every row is a definite match and
		// "no" means every row is a definite non-match.
		return v.verdict(z.Lo, z.Hi, tol[v.column])
	case *catIn:
		z, ok := zones(v.column)
		if !ok || z.Kind != table.Categorical || z.MayContain == nil {
			return maybe
		}
		if tol[v.column] != 0 {
			// A nonzero flip budget means up to ⌊e·N⌋ rows may hold a
			// value the zone never recorded; absence proves nothing.
			return maybe
		}
		for val := range v.set {
			if z.MayContain(val) {
				// Fingerprints are one-sided: presence is only "maybe"
				// (hash collisions), never a definite yes.
				return maybe
			}
		}
		return no
	case *logical:
		if len(v.ps) == 0 {
			if v.or {
				return no
			}
			return yes
		}
		acc := zoneEval(v.ps[0], zones, tol)
		for _, q := range v.ps[1:] {
			if v.or {
				acc = triOr(acc, zoneEval(q, zones, tol))
			} else {
				acc = triAnd(acc, zoneEval(q, zones, tol))
			}
		}
		return acc
	case *negation:
		// Not flips definite verdicts, but only all-rows-definite ones:
		// zoneEval(p)==no means every row is a definite no for p, hence a
		// definite yes for Not(p), and symmetrically.
		return triNot(zoneEval(v.p, zones, tol))
	default:
		return maybe
	}
}
