package query

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// exactTable builds a small deterministic table for unit tests.
func exactTable(t *testing.T) *table.Table {
	t.Helper()
	schema := table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "y", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	rows := [][]any{
		{1.0, 10.0, "a"},
		{2.0, 20.0, "a"},
		{3.0, 30.0, "b"},
		{4.0, 40.0, "b"},
		{5.0, 50.0, "b"},
	}
	for _, r := range rows {
		b.MustAppendRow(r...)
	}
	return b.MustBuild()
}

func TestExactCount(t *testing.T) {
	tb := exactTable(t)
	res, err := Run(tb, nil, Query{Agg: Count, Where: NumCmp("x", Ge, 3)})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	if g.Value != 3 || g.Lo != 3 || g.Hi != 3 {
		t.Errorf("COUNT = %+v, want exactly 3", g)
	}
}

func TestExactAggregates(t *testing.T) {
	tb := exactTable(t)
	cases := []struct {
		agg  AggKind
		want float64
	}{
		{Sum, 120},
		{Avg, 40},
		{Min, 30},
		{Max, 50},
	}
	for _, c := range cases {
		res, err := Run(tb, nil, Query{Agg: c.agg, Column: "y", Where: NumCmp("x", Ge, 3)})
		if err != nil {
			t.Fatal(err)
		}
		g := res.Groups[0]
		if g.Value != c.want || g.Lo != c.want || g.Hi != c.want {
			t.Errorf("%v = %+v, want exactly %g", c.agg, g, c.want)
		}
	}
}

func TestGroupBy(t *testing.T) {
	tb := exactTable(t)
	res, err := Run(tb, nil, Query{Agg: Sum, Column: "y", GroupBy: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	want := map[string]float64{"a": 30, "b": 120}
	for _, g := range res.Groups {
		if g.Value != want[g.Key] {
			t.Errorf("group %q = %g, want %g", g.Key, g.Value, want[g.Key])
		}
	}
}

func TestCategoricalPredicate(t *testing.T) {
	tb := exactTable(t)
	res, err := Run(tb, nil, Query{Agg: Count, Where: CatEq("g", "a")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Value != 2 {
		t.Errorf("COUNT(g=a) = %g, want 2", res.Groups[0].Value)
	}
	res, err = Run(tb, nil, Query{Agg: Count, Where: CatIn("g", "a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Value != 5 {
		t.Errorf("COUNT(g in a,b) = %g, want 5", res.Groups[0].Value)
	}
}

func TestLogicalConnectives(t *testing.T) {
	tb := exactTable(t)
	p := And(NumCmp("x", Ge, 2), Or(CatEq("g", "a"), NumCmp("y", Gt, 45)))
	res, err := Run(tb, nil, Query{Agg: Count, Where: p})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: x>=2 -> {2,3,4,5}; g=a -> {2}; y>45 -> {5}. Union -> {2,5}.
	if res.Groups[0].Value != 2 {
		t.Errorf("COUNT = %g, want 2", res.Groups[0].Value)
	}
	res, err = Run(tb, nil, Query{Agg: Count, Where: Not(p)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Value != 3 {
		t.Errorf("COUNT(not p) = %g, want 3", res.Groups[0].Value)
	}
}

func TestUncertaintyWidensBounds(t *testing.T) {
	tb := exactTable(t)
	tol := table.Tolerances{{Value: 1}, {Value: 5}, {Value: 0}}
	// x >= 3 with ±1: rows with x in (2,4) are uncertain, i.e. x=3 and
	// x=2 and x=4 are uncertain (|x-3| < 1... boundary: x=2 -> hi=3 not
	// < 3 -> uncertain under Ge).
	res, err := Run(tb, tol, Query{Agg: Count, Where: NumCmp("x", Ge, 3)})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	if g.Lo > 2 || g.Hi < 4 {
		t.Errorf("COUNT bounds [%g,%g] too tight for ±1 tolerance", g.Lo, g.Hi)
	}
	if g.Lo > g.Value || g.Value > g.Hi {
		t.Errorf("point estimate %g outside [%g,%g]", g.Value, g.Lo, g.Hi)
	}
}

func TestValidationErrors(t *testing.T) {
	tb := exactTable(t)
	cases := []Query{
		{Agg: Sum},                                      // missing column
		{Agg: Sum, Column: "nope"},                      // unknown column
		{Agg: Sum, Column: "g"},                         // categorical aggregate
		{Agg: Count, GroupBy: "x"},                      // numeric group-by
		{Agg: Count, GroupBy: "nope"},                   // unknown group-by
		{Agg: Count, Where: NumCmp("g", Ge, 1)},         // numeric cmp on categorical
		{Agg: Count, Where: CatEq("x", "v")},            // categorical pred on numeric
		{Agg: Count, Where: NumCmp("missing", Ge, 1)},   // unknown predicate column
		{Agg: Count, Where: Not(CatEq("missing", "v"))}, // nested unknown
	}
	for i, q := range cases {
		if _, err := Run(tb, nil, q); err == nil {
			t.Errorf("case %d: Run accepted invalid query %+v", i, q)
		}
	}
}

// TestNaNConstantRefused pins that a comparison with a NaN constant is
// refused by validation, naming the column, wherever it sits in the
// predicate and whatever the tolerance: no value is ordered against NaN,
// so every row would otherwise come back uncertain. Infinite constants
// stay legal and are answered exactly on a lossless table.
func TestNaNConstantRefused(t *testing.T) {
	schema := table.Schema{{Name: "x", Kind: table.Numeric}}
	b := table.MustBuilder(schema)
	for i := 0; i < 10; i++ {
		b.MustAppendRow(float64(i))
	}
	tb := b.MustBuild()
	lossless := table.ZeroTolerances(tb)
	half := table.Tolerances{{Value: 0.5}}
	for _, tc := range []struct {
		expr string
		tol  table.Tolerances
	}{
		{"x < NaN", lossless},
		{"x != NaN", half},
		{"x == nan", lossless},
		{"x >= 1 || !(x <= NaN)", half},
	} {
		p, err := ParsePredicate(tc.expr, schema)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		q := Query{Agg: Count, Where: p}
		if res, err := Run(tb, tc.tol, q); err == nil {
			t.Errorf("%s: Run answered %+v, want an error", tc.expr, res.Groups)
		} else if !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: error %q does not name the column and NaN", tc.expr, err)
		}
		halves := []*table.Table{tb, tb}
		if _, err := RunSegments(halves, tc.tol, q, &Scope{TotalRows: 20}); err == nil {
			t.Errorf("%s: RunSegments accepted the query", tc.expr)
		}
	}
	for expr, want := range map[string]float64{"x < Inf": 10, "x > -Inf": 10, "x >= +Inf": 0} {
		p, err := ParsePredicate(expr, schema)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		res, err := Run(tb, lossless, Query{Agg: Count, Where: p})
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if g := res.Groups[0]; g.Value != want || g.Lo != want || g.Hi != want {
			t.Errorf("%s: COUNT = %+v, want exactly %g", expr, g, want)
		}
	}
}

func TestEmptySelection(t *testing.T) {
	tb := exactTable(t)
	res, err := Run(tb, nil, Query{Agg: Sum, Column: "y", Where: NumCmp("x", Gt, 100)})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	if g.Value != 0 || g.Rows != 0 {
		t.Errorf("empty SUM = %+v", g)
	}
	res, err = Run(tb, nil, Query{Agg: Min, Column: "y", Where: NumCmp("x", Gt, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Groups[0].Value) {
		t.Errorf("empty MIN = %g, want NaN", res.Groups[0].Value)
	}
}

// --- Soundness: original-table answers always fall inside the bounds ---

// runExact computes the query on the original table with zero tolerances
// (point answers).
func runExact(t *testing.T, tb *table.Table, q Query) map[string]float64 {
	t.Helper()
	res, err := Run(tb, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, g := range res.Groups {
		out[g.Key] = g.Value
	}
	return out
}

func TestBoundsSoundAfterCompression(t *testing.T) {
	tb := datagen.CDR(4000, 3)
	frac := 0.05
	tol := table.UniformTolerances(tb, frac, 0)
	var buf bytes.Buffer
	if _, err := core.Compress(&buf, tb, core.Options{Tolerances: tol}); err != nil {
		t.Fatal(err)
	}
	restored, err := core.Decompress(&buf)
	if err != nil {
		t.Fatal(err)
	}

	queries := []Query{
		{Agg: Count, Where: NumCmp("duration_sec", Gt, 200)},
		{Agg: Sum, Column: "charge_cents", Where: NumCmp("duration_sec", Gt, 200)},
		{Agg: Avg, Column: "charge_cents", Where: CatEq("plan", "basic")},
		{Agg: Max, Column: "charge_cents", Where: CatEq("call_type", "local")},
		{Agg: Min, Column: "duration_sec", Where: NumCmp("charge_cents", Ge, 50)},
		{Agg: Sum, Column: "charge_cents", GroupBy: "plan"},
		{Agg: Count, Where: And(CatEq("peak", "peak"), NumCmp("duration_sec", Le, 400)), GroupBy: "call_type"},
	}
	for qi, q := range queries {
		exact := runExact(t, tb, q)
		res, err := Run(restored, tol, q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		for _, g := range res.Groups {
			want, ok := exact[g.Key]
			if !ok {
				// Group exists only in restored data; the flip budget
				// covers it, nothing to compare.
				continue
			}
			if math.IsNaN(want) || math.IsNaN(g.Lo) {
				continue
			}
			if want < g.Lo-1e-6 || want > g.Hi+1e-6 {
				t.Errorf("query %d group %q: exact %g outside bounds [%g, %g] (estimate %g)",
					qi, g.Key, want, g.Lo, g.Hi, g.Value)
			}
		}
	}
}

func TestBoundsSoundProperty(t *testing.T) {
	f := func(seed int64, opByte, colByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := datagen.CDR(600, seed)
		frac := 0.02 + float64(opByte%8)/100
		tol := table.UniformTolerances(tb, frac, 0)
		var buf bytes.Buffer
		if _, err := core.Compress(&buf, tb, core.Options{Tolerances: tol, Seed: seed + 1}); err != nil {
			return false
		}
		restored, err := core.Decompress(&buf)
		if err != nil {
			return false
		}
		numCols := []string{"start_hour", "duration_sec", "charge_cents"}
		col := numCols[int(colByte)%len(numCols)]
		op := CmpOp(int(opByte) % 4) // Lt..Ge
		threshold := tb.Col(tb.Schema().Index(col)).Floats[rng.Intn(tb.NumRows())]
		q := Query{
			Agg:    AggKind(int(opByte) % 5),
			Column: "charge_cents",
			Where:  NumCmp(col, op, threshold),
		}
		if q.Agg == Count {
			q.Column = ""
		}
		exactRes, err := Run(tb, nil, q)
		if err != nil {
			return false
		}
		res, err := Run(restored, tol, q)
		if err != nil {
			return false
		}
		want := exactRes.Groups[0].Value
		g := res.Groups[0]
		if math.IsNaN(want) || math.IsNaN(g.Lo) {
			return true
		}
		return want >= g.Lo-1e-6 && want <= g.Hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCategoricalFlipBudget(t *testing.T) {
	// With a nonzero categorical tolerance, counts over that column must
	// widen by the flip budget.
	tb := datagen.Census(2000, 4)
	tol := table.UniformTolerances(tb, 0.01, 0.05)
	res, err := Run(tb, tol, Query{Agg: Count, Where: CatEq("employment", "fulltime")})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	budget := int(0.05 * 2000)
	if g.Hi-g.Value < float64(budget) || g.Value-g.Lo < float64(budget) {
		t.Errorf("flip budget not reflected: value %g bounds [%g, %g], budget %d",
			g.Value, g.Lo, g.Hi, budget)
	}
}

// TestExtremeFlipBudgetCoversEveryDefiniteRow: when the flip budget is
// at least the definite rows, every one of them may flip out, so MIN's
// upper and MAX's lower bound fall back to the column's extremes. The
// reconstructed c is [a,b,b,b], the original [b,a,b,b]; the 0.5
// categorical tolerance gives a flip budget of 2 over 4 rows. Only the
// second row holds c='a' in the original, and its x is the column's
// maximum for MIN, its minimum for MAX.
func TestExtremeFlipBudgetCoversEveryDefiniteRow(t *testing.T) {
	build := func(xs []float64, cs ...string) *table.Table {
		b := table.MustBuilder(table.Schema{{Name: "c", Kind: table.Categorical}, {Name: "x", Kind: table.Numeric}})
		for i, x := range xs {
			b.MustAppendRow(cs[i], x)
		}
		return b.MustBuild()
	}
	for _, tc := range []struct {
		agg AggKind
		xs  []float64
	}{
		{Min, []float64{1, 100, 5, 7}},
		{Max, []float64{100, 1, 5, 7}},
	} {
		recon, orig := build(tc.xs, "a", "b", "b", "b"), build(tc.xs, "b", "a", "b", "b")
		q := Query{Agg: tc.agg, Column: "x", Where: CatEq("c", "a")}
		res, err := Run(recon, table.UniformTolerances(recon, 0, 0.5), q)
		if err != nil {
			t.Fatal(err)
		}
		want := runExact(t, orig, q)[""]
		if g := res.Groups[0]; !(want >= g.Lo && want <= g.Hi) {
			t.Errorf("%v(x) WHERE c='a' = %g in [%g, %g]; the original's %g is outside", tc.agg, g.Value, g.Lo, g.Hi, want)
		}
	}
}

func TestTriLogic(t *testing.T) {
	if triAnd(yes, maybe) != maybe || triAnd(no, maybe) != no || triAnd(yes, yes) != yes {
		t.Error("triAnd wrong")
	}
	if triOr(no, maybe) != maybe || triOr(yes, maybe) != yes || triOr(no, no) != no {
		t.Error("triOr wrong")
	}
	if triNot(yes) != no || triNot(no) != yes || triNot(maybe) != maybe {
		t.Error("triNot wrong")
	}
}

func TestCmpOpAndAggStrings(t *testing.T) {
	ops := map[CmpOp]string{Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "==", Ne: "!="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("CmpOp %d = %q, want %q", op, op.String(), want)
		}
	}
	aggs := map[AggKind]string{Count: "COUNT", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX"}
	for a, want := range aggs {
		if a.String() != want {
			t.Errorf("AggKind %d = %q, want %q", a, a.String(), want)
		}
	}
}

func TestDivideInterval(t *testing.T) {
	lo, hi := divideInterval(10, 20, 2, 5)
	if lo != 2 || hi != 10 {
		t.Errorf("divideInterval = [%g, %g], want [2, 10]", lo, hi)
	}
	// Zero lower count clamps to one row.
	lo, hi = divideInterval(10, 20, 0, 5)
	if lo != 2 || hi != 20 {
		t.Errorf("divideInterval with cLo=0 = [%g, %g], want [2, 20]", lo, hi)
	}
	// Impossible count.
	lo, hi = divideInterval(10, 20, 0, 0)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("divideInterval with no rows = [%g, %g], want NaN", lo, hi)
	}
	// Negative sums.
	lo, hi = divideInterval(-20, -10, 2, 5)
	if lo != -10 || hi != -2 {
		t.Errorf("divideInterval negative = [%g, %g], want [-10, -2]", lo, hi)
	}
}
