package query

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/table"
)

// splitAt cuts tb into consecutive segments ending at the given row
// offsets (sorted, each in [0, rows]); repeated offsets make empty
// segments.
func splitAt(t testing.TB, tb *table.Table, cuts []int) []*table.Table {
	t.Helper()
	var segs []*table.Table
	lo := 0
	for _, hi := range append(cuts, tb.NumRows()) {
		rows := make([]int, hi-lo)
		for i := range rows {
			rows[i] = lo + i
		}
		seg, err := tb.SelectRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
		lo = hi
	}
	return segs
}

// randomCuts draws up to five sorted cut points in [0, rows].
func randomCuts(rng *rand.Rand, rows int) []int {
	cuts := make([]int, 1+rng.Intn(5))
	for i := range cuts {
		cuts[i] = rng.Intn(rows + 1)
	}
	slices.Sort(cuts)
	return cuts
}

// resultBits is a Result with every float replaced by its bit pattern,
// so reflect.DeepEqual on it demands bit-identical answers (and treats
// NaN like any other value).
type resultBits struct {
	nilGroups bool
	groups    []groupBits
}

type groupBits struct {
	key              string
	value, lo, hi    uint64
	rows, uncertains int
}

func toBits(r *Result) resultBits {
	out := resultBits{nilGroups: r.Groups == nil}
	for _, g := range r.Groups {
		out.groups = append(out.groups, groupBits{g.Key, math.Float64bits(g.Value),
			math.Float64bits(g.Lo), math.Float64bits(g.Hi), g.Rows, g.UncertainRows})
	}
	return out
}

// checkSegmentsMatchMerged runs q on the segments and on their merge
// under the same scope and fails unless both answer bit-identically (or
// both refuse the query).
func checkSegmentsMatchMerged(t testing.TB, segs []*table.Table, tol table.Tolerances, q Query, scope *Scope) {
	t.Helper()
	merged, err := codec.Merge(segs)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := RunScoped(merged, tol, q, scope)
	got, gotErr := RunSegments(segs, tol, q, scope)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%+v on %d segments: error %v, merged table error %v", q, len(segs), gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(toBits(got), toBits(want)) {
		t.Fatalf("%+v on %d segments:\n got %+v\nwant %+v", q, len(segs), got.Groups, want.Groups)
	}
}

// scopesFor gives an empty scope, whose row count and value bounds fall
// back to the tables' own, a row-count-only scope, and one whose ranges
// cover only the first numeric column, widened as a footer's zone maps
// would be.
func scopesFor(tb *table.Table) []*Scope {
	partial := &Scope{TotalRows: tb.NumRows() + 100, Ranges: map[string][2]float64{}}
	for i := 0; i < tb.NumCols(); i++ {
		if tb.Attr(i).Kind == table.Numeric {
			lo, hi := tb.Col(i).MinMax()
			partial.Ranges[tb.Attr(i).Name] = [2]float64{lo - 1, hi + 1}
			break
		}
	}
	return []*Scope{{}, {TotalRows: tb.NumRows()}, partial}
}

// TestRunSegmentsMatchesMerged splits datagen tables at random points
// and checks that querying the segments in place answers exactly what
// querying their merge does: every aggregate with and without GROUP BY,
// every connective, numeric equality at zero and non-zero tolerance, and
// a categorical tolerance whose flip budget runs the sorted-removal
// paths.
func TestRunSegmentsMatchesMerged(t *testing.T) {
	for _, ds := range []struct {
		name            string
		tb              *table.Table
		column, groupBy string
		preds           []Predicate
	}{
		{"cdr", datagen.CDR(3000, 5), "charge_cents", "plan", []Predicate{
			nil,
			NumCmp("duration_sec", Gt, 60),
			And(CatEq("peak", "peak"), NumCmp("duration_sec", Le, 400)),
			Or(CatIn("plan", "basic", "saver"), NumCmp("charge_cents", Lt, 50)),
			Not(CatEq("call_type", "local")),
			NumCmp("start_hour", Eq, 22),
			NumCmp("start_hour", Ne, 22),
			And(NumCmp("charge_cents", Ge, 40), Not(Or(CatEq("trunk", "908-T0"), NumCmp("rate_cents_min", Eq, 10)))),
			And(),
			Or(),
			NumCmp("duration_sec", Gt, 1e9),
		}},
		{"census", datagen.Census(3000, 6), "weekly_earn", "region", []Predicate{
			nil,
			NumCmp("age", Ge, 40),
			And(CatIn("employment", "fulltime", "parttime"), NumCmp("weekly_hours", Lt, 30)),
			Or(CatEq("income_band", "high"), Not(NumCmp("educ_years", Ne, 16))),
			NumCmp("household_size", Eq, 3),
			NumCmp("age", Lt, 0),
		}},
	} {
		t.Run(ds.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tb := ds.tb
			tols := []table.Tolerances{
				nil,
				table.UniformTolerances(tb, 0.01, 0),
				table.UniformTolerances(tb, 0.02, 0.01),
			}
			for _, scope := range scopesFor(tb) {
				for _, tol := range tols {
					for _, where := range ds.preds {
						for agg := Count; agg <= Max; agg++ {
							for _, groupBy := range []string{"", ds.groupBy} {
								q := Query{Agg: agg, Where: where, GroupBy: groupBy}
								if agg != Count {
									q.Column = ds.column
								}
								segs := splitAt(t, tb, randomCuts(rng, tb.NumRows()))
								checkSegmentsMatchMerged(t, segs, tol, q, scope)
							}
						}
					}
				}
			}
		})
	}
}

// TestRunSegmentsRepeatedDictionary: a decoded dictionary may hold one
// string under two codes, and rows under either code form one group.
func TestRunSegmentsRepeatedDictionary(t *testing.T) {
	schema := table.Schema{{Name: "v", Kind: table.Numeric}, {Name: "g", Kind: table.Categorical}}
	dict := []string{"a", "b", "a", "c", "b"}
	tb, err := table.New(schema, []*table.Column{
		{Kind: table.Numeric, Floats: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: table.Categorical, Codes: []int32{0, 1, 2, 3, 4, 2, 0, 3}, Dict: dict},
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := splitAt(t, tb, []int{3, 5})
	scope := &Scope{TotalRows: tb.NumRows()}
	q := Query{Agg: Sum, Column: "v", GroupBy: "g"}
	res, err := RunSegments(segs, nil, q, scope)
	if err != nil {
		t.Fatal(err)
	}
	var got []Group
	for _, g := range res.Groups {
		got = append(got, Group{Key: g.Key, Value: g.Value, Lo: g.Lo, Hi: g.Hi, Rows: g.Rows})
	}
	want := []Group{
		{Key: "a", Value: 1 + 3 + 6 + 7, Lo: 17, Hi: 17, Rows: 4},
		{Key: "b", Value: 2 + 5, Lo: 7, Hi: 7, Rows: 2},
		{Key: "c", Value: 4 + 8, Lo: 12, Hi: 12, Rows: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %+v, want %+v", got, want)
	}
	checkSegmentsMatchMerged(t, segs, nil, q, scope)
	checkSegmentsMatchMerged(t, segs, table.Tolerances{{}, {Value: 0.25}}, Query{Agg: Max, Column: "v", GroupBy: "g", Where: CatIn("g", "a", "c")}, scope)
}

// TestRunSegmentsEmptySelection: without GROUP BY an empty selection is
// still one group, and with it there are none.
func TestRunSegmentsEmptySelection(t *testing.T) {
	tb := datagen.CDR(500, 2)
	segs := splitAt(t, tb, []int{100, 100, 400})
	scope := &Scope{TotalRows: tb.NumRows()}
	none := NumCmp("duration_sec", Lt, -1)
	res, err := RunSegments(segs, nil, Query{Agg: Avg, Column: "charge_cents", Where: none}, scope)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Key != "" || res.Groups[0].Rows != 0 || !math.IsNaN(res.Groups[0].Value) {
		t.Errorf("empty selection without GROUP BY = %+v, want one empty group", res.Groups)
	}
	res, err = RunSegments(segs, nil, Query{Agg: Count, Where: none, GroupBy: "plan"}, scope)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != nil {
		t.Errorf("empty selection with GROUP BY = %+v, want no groups", res.Groups)
	}
}

func TestRunSegmentsRefusals(t *testing.T) {
	tb := datagen.CDR(200, 3)
	segs := splitAt(t, tb, []int{50})
	q := Query{Agg: Count}
	if _, err := RunSegments(nil, nil, q, &Scope{}); err == nil {
		t.Error("RunSegments accepted no tables")
	}
	if _, err := RunSegments(segs, nil, q, nil); err == nil {
		t.Error("RunSegments accepted two tables without a scope")
	}
	other, err := tb.Project([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSegments([]*table.Table{tb, other}, nil, q, &Scope{}); err == nil {
		t.Error("RunSegments accepted tables with different schemas")
	}
}

// fuzzPredicate decodes a predicate over CDR's columns from b, consuming
// bytes as it goes: a node byte picks a numeric comparison, a
// categorical membership, &&, ||, or !, and the bytes after it its
// operands. Nesting stops at depth 3, and an exhausted input ends in a
// comparison.
func fuzzPredicate(b []byte, depth int) (Predicate, []byte) {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return v
	}
	numCols := []string{"start_hour", "duration_sec", "rate_cents_min", "charge_cents"}
	thresholds := []float64{0, 1, 10, 22, 50, 60, 100, 300, 1000}
	catCols := []struct {
		name   string
		values []string
	}{
		{"plan", []string{"saver", "business", "basic", "none"}},
		{"peak", []string{"peak", "offpeak"}},
		{"call_type", []string{"long_distance", "local"}},
	}
	kind := next() % 5
	if depth >= 3 && kind >= 2 {
		kind = 0
	}
	switch kind {
	case 0:
		col := numCols[int(next())%len(numCols)]
		op := CmpOp(next() % 6)
		return NumCmp(col, op, thresholds[int(next())%len(thresholds)]), b
	case 1:
		c := catCols[int(next())%len(catCols)]
		mask := next()
		var vals []string
		for i, v := range c.values {
			if mask&(1<<i) != 0 {
				vals = append(vals, v)
			}
		}
		return CatIn(c.name, vals...), b
	case 4:
		p, rest := fuzzPredicate(b, depth+1)
		return Not(p), rest
	default:
		l, rest := fuzzPredicate(b, depth+1)
		r, rest := fuzzPredicate(rest, depth+1)
		if kind == 2 {
			return And(l, r), rest
		}
		return Or(l, r), rest
	}
}

// FuzzRunSegments checks the differential property of
// TestRunSegmentsMatchesMerged on fuzz-chosen split points, predicates,
// aggregates and tolerances.
func FuzzRunSegments(f *testing.F) {
	tb := datagen.CDR(400, 9)
	tols := []table.Tolerances{
		nil,
		table.UniformTolerances(tb, 0.01, 0),
		table.UniformTolerances(tb, 0.02, 0.02),
	}
	f.Add([]byte{100, 200}, []byte{0, 1, 0, 5}, uint8(0), false, uint8(0))
	f.Add([]byte{0, 0, 255}, []byte{2, 1, 0, 1, 0, 1, 2, 3}, uint8(2), true, uint8(2))
	f.Add([]byte{50}, []byte{3, 4, 1, 0, 1, 0, 3, 2, 7}, uint8(3), true, uint8(1))
	f.Add([]byte{}, []byte{4, 1, 1, 3}, uint8(4), false, uint8(2))
	f.Fuzz(func(t *testing.T, cutBytes, predBytes []byte, agg uint8, group bool, tolIdx uint8) {
		if len(cutBytes) > 8 {
			cutBytes = cutBytes[:8]
		}
		cuts := make([]int, len(cutBytes))
		for i, c := range cutBytes {
			cuts[i] = int(c) * tb.NumRows() / 255
		}
		slices.Sort(cuts)
		q := Query{Agg: AggKind(agg % 5)}
		if q.Agg != Count {
			q.Column = "charge_cents"
		}
		if group {
			q.GroupBy = "plan"
		}
		if len(predBytes) > 0 {
			q.Where, _ = fuzzPredicate(predBytes, 0)
		}
		segs := splitAt(t, tb, cuts)
		checkSegmentsMatchMerged(t, segs, tols[int(tolIdx)%len(tols)], q, &Scope{TotalRows: tb.NumRows()})
	})
}
