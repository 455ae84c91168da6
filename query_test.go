package spartan

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/datagen"
)

// exactAggregate computes the true aggregate on a table directly, the
// reference the query engine's bounds must contain.
func exactAggregate(t *testing.T, tb *Table, q Query) float64 {
	t.Helper()
	col := -1
	if q.Column != "" {
		for i := 0; i < tb.NumCols(); i++ {
			if tb.Attr(i).Name == q.Column {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("column %q not found", q.Column)
		}
	}
	count, sum := 0, 0.0
	mn, mx := math.Inf(1), math.Inf(-1)
	for r := 0; r < tb.NumRows(); r++ {
		count++
		if col >= 0 {
			v := tb.Float(r, col)
			sum += v
			mn = math.Min(mn, v)
			mx = math.Max(mx, v)
		}
	}
	switch q.Agg {
	case Count:
		return float64(count)
	case Sum:
		return sum
	case Avg:
		return sum / float64(count)
	case Min:
		return mn
	case Max:
		return mx
	}
	t.Fatalf("unsupported aggregate %v", q.Agg)
	return 0
}

// TestRunQueryBoundsContainTruth is the paper's §1 guarantee end to end:
// compress with tolerance, decompress, query the reconstruction — the
// returned interval must contain the answer the original table gives.
func TestRunQueryBoundsContainTruth(t *testing.T) {
	tb := datagen.CDR(2500, 7)
	tol := UniformTolerances(tb, 0.02, 0)
	data, _, err := compressBytes(tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{Agg: Count},
		{Agg: Sum, Column: "duration_sec"},
		{Agg: Avg, Column: "duration_sec"},
		{Agg: Min, Column: "charge_cents"},
		{Agg: Max, Column: "charge_cents"},
	} {
		res, err := RunQuery(back, tol, q)
		if err != nil {
			t.Fatalf("%v(%s): %v", q.Agg, q.Column, err)
		}
		if len(res.Groups) != 1 {
			t.Fatalf("%v(%s): %d groups, want 1", q.Agg, q.Column, len(res.Groups))
		}
		g := res.Groups[0]
		truth := exactAggregate(t, tb, q)
		if truth < g.Lo || truth > g.Hi {
			t.Errorf("%v(%s): truth %g outside bounds [%g, %g]",
				q.Agg, q.Column, truth, g.Lo, g.Hi)
		}
		if g.Value < g.Lo || g.Value > g.Hi {
			t.Errorf("%v(%s): point estimate %g outside its own bounds [%g, %g]",
				q.Agg, q.Column, g.Value, g.Lo, g.Hi)
		}
	}
}

// TestRunQueryPredicatesAndGroupBy exercises the combinators and GROUP BY
// through the public aliases on a reconstructed table.
func TestRunQueryPredicatesAndGroupBy(t *testing.T) {
	tb := datagen.CDR(2000, 3)
	tol := UniformTolerances(tb, 0.01, 0)
	data, _, err := compressBytes(tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	pred := QAnd(
		NumCmp("duration_sec", Gt, 0),
		QNot(NumCmp("duration_sec", Lt, 0)),
	)
	res, err := RunQuery(back, tol, Query{Agg: Count, Where: pred, GroupBy: "plan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 2 {
		t.Fatalf("GROUP BY plan produced %d groups, want several", len(res.Groups))
	}
	total := 0
	for _, g := range res.Groups {
		if g.Key == "" {
			t.Error("grouped result carries an empty key")
		}
		total += g.Rows + g.UncertainRows
	}
	if total > tb.NumRows() {
		t.Errorf("groups account for %d rows, table has %d", total, tb.NumRows())
	}

	// Parsed predicate must agree with the equivalent combinator query.
	parsed, err := ParsePredicate("duration_sec > 100", back.Schema())
	if err != nil {
		t.Fatal(err)
	}
	fromParse, err := RunQuery(back, tol, Query{Agg: Count, Where: parsed})
	if err != nil {
		t.Fatal(err)
	}
	fromComb, err := RunQuery(back, tol, Query{Agg: Count, Where: NumCmp("duration_sec", Gt, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if fromParse.Groups[0] != fromComb.Groups[0] {
		t.Errorf("parsed predicate result %+v != combinator result %+v",
			fromParse.Groups[0], fromComb.Groups[0])
	}
}

// TestRunQueryErrors checks the error paths reachable through the public
// wrappers.
func TestRunQueryErrors(t *testing.T) {
	tb := datagen.CDR(200, 4)
	if _, err := RunQuery(tb, nil, Query{Agg: Sum, Column: "no_such_column"}); err == nil {
		t.Error("Sum over a missing column must fail")
	}
	if _, err := RunQuery(tb, nil, Query{Agg: Sum, Column: "plan"}); err == nil {
		t.Error("Sum over a categorical column must fail")
	}
	if _, err := ParsePredicate("duration_sec >", tb.Schema()); err == nil {
		t.Error("truncated expression must fail to parse")
	}
	if _, err := ParsePredicate("nope == 'x'", tb.Schema()); err == nil {
		t.Error("unknown column in expression must fail to parse")
	}
}
