package query

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// collectedAggregate is aggregate as it was before the definite values
// streamed into their bucket's sums: every aggregate is computed from the
// definite values, collected in row order. b must hold them (groupRows
// with keepDef).
func collectedAggregate(ctx *evalCtx, q Query, b *bucket, flips int) Group {
	g := Group{Key: b.key, Rows: b.def, UncertainRows: b.unc + flips}
	def := slices.Clone(b.defVals) // the intervals sort it
	switch q.Agg {
	case Count:
		g.Value = float64(b.def)
		g.Lo = math.Max(0, float64(b.def-flips))
		g.Hi = float64(b.def + b.unc + flips)
	case Sum:
		collectedSum(ctx, q.Column, def, b.uncVals, flips, &g)
	case Avg:
		var s Group
		collectedSum(ctx, q.Column, def, b.uncVals, flips, &s)
		cntLo := math.Max(0, float64(b.def-flips))
		cntHi := float64(b.def + b.unc + flips)
		if b.def == 0 {
			g.Value = math.NaN()
		} else {
			g.Value = s.Value / float64(b.def)
		}
		g.Lo, g.Hi = divideInterval(s.Lo, s.Hi, cntLo, cntHi)
	case Min, Max:
		collectedExtreme(ctx, q.Column, def, b.uncVals, flips, q.Agg == Min, &g)
	}
	return g
}

// collectedSum is sumInterval over the collected definite values def.
func collectedSum(ctx *evalCtx, column string, def, unc []float64, flips int, g *Group) {
	e := ctx.tol[column]
	sum, lo, hi := 0.0, 0.0, 0.0
	for _, v := range def {
		sum += v
		lo += v - e
		hi += v + e
	}
	for _, v := range unc {
		lo += math.Min(0, v-e)
		hi += math.Max(0, v+e)
	}
	if flips > 0 {
		tLo, tHi := ctx.colBounds(column)
		sort.Float64s(def)
		for i := 0; i < flips; i++ {
			lo += math.Min(0, tLo-e)
			hi += math.Max(0, tHi+e)
			if i < len(def) {
				lo -= math.Max(0, def[len(def)-1-i]+e)
				hi -= math.Min(0, def[i]-e)
			}
		}
	}
	g.Value, g.Lo, g.Hi = sum, lo, hi
}

// collectedExtreme is extremeInterval over the collected definite values
// def.
func collectedExtreme(ctx *evalCtx, column string, def, unc []float64, flips int, isMin bool, g *Group) {
	e := ctx.tol[column]
	if len(def) == 0 && len(unc) == 0 {
		g.Value, g.Lo, g.Hi = math.NaN(), math.NaN(), math.NaN()
		return
	}
	best := math.Inf(1)
	if !isMin {
		best = math.Inf(-1)
	}
	for _, v := range def {
		if isMin {
			best = math.Min(best, v)
		} else {
			best = math.Max(best, v)
		}
	}
	g.Value = best
	if len(def) == 0 {
		g.Value = math.NaN()
	}
	outward := best
	for _, v := range unc {
		if isMin {
			outward = math.Min(outward, v)
		} else {
			outward = math.Max(outward, v)
		}
	}
	var tLo, tHi float64
	if flips > 0 {
		tLo, tHi = ctx.colBounds(column)
		if isMin {
			outward = math.Min(outward, tLo)
		} else {
			outward = math.Max(outward, tHi)
		}
	}
	if flips > 0 && len(def) > 0 {
		sort.Float64s(def)
	}
	if isMin {
		g.Lo, g.Hi = outward-e, best+e
		if flips > 0 && len(def) > 0 {
			g.Hi = tHi + e
			if flips < len(def) {
				g.Hi = def[flips] + e
			}
		}
	} else {
		g.Lo, g.Hi = best-e, outward+e
		if flips > 0 && len(def) > 0 {
			g.Lo = tLo - e
			if flips < len(def) {
				g.Lo = def[len(def)-1-flips] - e
			}
		}
	}
	if math.IsNaN(g.Value) {
		g.Lo, g.Hi = math.NaN(), math.NaN()
	}
}

// TestStreamingMatchesCollected checks that every aggregate streamed
// into its bucket answers bit-identically to the same aggregate computed
// from the collected values: CDR and census in one and four segments, at
// categorical tolerance 0 and 0.05 (whose flip budget runs the
// sorted-removal paths), over predicates with uncertain rows, with and
// without GROUP BY.
func TestStreamingMatchesCollected(t *testing.T) {
	var uncertain, flipped int
	for _, ds := range []struct {
		name            string
		tb              *table.Table
		column, groupBy string
		preds           []Predicate
	}{
		{"cdr", datagen.CDR(3000, 5), "charge_cents", "plan", []Predicate{
			nil,
			NumCmp("duration_sec", Gt, 60),
			CatEq("peak", "peak"),
			And(CatIn("plan", "basic", "saver"), NumCmp("charge_cents", Lt, 50)),
		}},
		{"census", datagen.Census(3000, 6), "weekly_earn", "region", []Predicate{
			nil,
			NumCmp("age", Ge, 40),
			CatEq("income_band", "high"),
			And(CatIn("employment", "fulltime", "parttime"), NumCmp("weekly_hours", Lt, 30)),
		}},
	} {
		n := ds.tb.NumRows()
		for _, segs := range [][]*table.Table{{ds.tb}, splitAt(t, ds.tb, []int{n / 4, n / 2, 3 * n / 4})} {
			var scope *Scope
			if len(segs) > 1 {
				scope = &Scope{TotalRows: n}
			}
			for _, catTol := range []float64{0, 0.05} {
				tol := table.UniformTolerances(ds.tb, 0.01, catTol)
				for _, where := range ds.preds {
					for agg := Count; agg <= Max; agg++ {
						for _, groupBy := range []string{"", ds.groupBy} {
							q := Query{Agg: agg, Where: where, GroupBy: groupBy}
							if agg != Count {
								q.Column = ds.column
							}
							got, err := RunSegments(segs, tol, q, scope)
							if err != nil {
								t.Fatal(err)
							}
							ctx, err := newEvalCtx(segs, tol, q, scope)
							if err != nil {
								t.Fatal(err)
							}
							flips := flipBudget(ctx, q)
							want := &Result{}
							for _, b := range groupRows(ctx, q, true) {
								want.Groups = append(want.Groups, collectedAggregate(ctx, q, b, flips))
								uncertain += b.unc
							}
							flipped += flips
							if !reflect.DeepEqual(toBits(got), toBits(want)) {
								t.Fatalf("%s, %d segments, categorical tolerance %g, %+v:\n got %+v\nwant %+v",
									ds.name, len(segs), catTol, q, got.Groups, want.Groups)
							}
						}
					}
				}
			}
		}
	}
	if uncertain == 0 || flipped == 0 {
		t.Errorf("%d uncertain rows and a flip budget of %d summed over every query: both paths must run", uncertain, flipped)
	}
}
