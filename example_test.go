package spartan_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	spartan "repro"
)

// buildExampleTable constructs the paper's Figure 1 credit table.
func buildExampleTable() *spartan.Table {
	b, err := spartan.NewBuilder(spartan.Schema{
		{Name: "age", Kind: spartan.Numeric},
		{Name: "salary", Kind: spartan.Numeric},
		{Name: "assets", Kind: spartan.Numeric},
		{Name: "credit", Kind: spartan.Categorical},
	})
	if err != nil {
		log.Fatal(err)
	}
	rows := [][]any{
		{30.0, 90000.0, 200000.0, "good"},
		{50.0, 110000.0, 250000.0, "good"},
		{70.0, 35000.0, 125000.0, "poor"},
		{75.0, 15000.0, 100000.0, "poor"},
		{25.0, 50000.0, 75000.0, "good"},
		{35.0, 76000.0, 75000.0, "good"},
		{45.0, 100000.0, 175000.0, "poor"},
		{55.0, 80000.0, 150000.0, "good"},
	}
	for _, r := range rows {
		if err := b.AppendRow(r...); err != nil {
			log.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return t
}

// Compressing and restoring a table under explicit error tolerances.
func Example() {
	tbl := buildExampleTable()
	tol := spartan.Tolerances{
		{Value: 2},     // age ±2
		{Value: 5000},  // salary ±5,000
		{Value: 25000}, // assets ±25,000
		{Value: 0},     // credit exact
	}
	var archive bytes.Buffer
	_, err := spartan.Compress(context.Background(), &archive, tbl, spartan.Options{Tolerances: tol}, spartan.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	restored, err := spartan.Decompress(&archive)
	if err != nil {
		log.Fatal(err)
	}
	if err := spartan.Verify(tbl, restored, tol); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", restored.NumRows())
	fmt.Println("credit[0]:", restored.CatString(0, 3))
	// Output:
	// rows: 8
	// credit[0]: good
}

// Lossless mode: nil tolerances demand (and Verify checks) exact
// equality.
func ExampleVerify() {
	tbl := buildExampleTable()
	var archive bytes.Buffer
	_, err := spartan.Compress(context.Background(), &archive, tbl, spartan.Options{}, spartan.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	restored, err := spartan.Decompress(&archive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(spartan.Verify(tbl, restored, nil) == nil)
	// Output:
	// true
}

// Approximate aggregates with guaranteed bounds over restored data.
func ExampleRunQuery() {
	tbl := buildExampleTable()
	tol := spartan.UniformTolerances(tbl, 0.05, 0)
	res, err := spartan.RunQuery(tbl, tol, spartan.Query{
		Agg:     spartan.Avg,
		Column:  "salary",
		Where:   spartan.CatEq("credit", "good"),
		GroupBy: "",
	})
	if err != nil {
		log.Fatal(err)
	}
	g := res.Groups[0]
	fmt.Printf("avg salary of good credit: %.0f (within [%.0f, %.0f])\n",
		g.Value, g.Lo, g.Hi)
	// Output:
	// avg salary of good credit: 81200 (within [76450, 85950])
}

// Filter expressions parse against a schema and bind by attribute kind.
func ExampleParsePredicate() {
	tbl := buildExampleTable()
	pred, err := spartan.ParsePredicate("salary >= 80000 && credit == 'good'", tbl.Schema())
	if err != nil {
		log.Fatal(err)
	}
	res, err := spartan.RunQuery(tbl, nil, spartan.Query{Agg: spartan.Count, Where: pred})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matching rows:", int(res.Groups[0].Value))
	// Output:
	// matching rows: 3
}

// UniformTolerances builds the paper's standard per-attribute vector.
func ExampleUniformTolerances() {
	tbl := buildExampleTable()
	tol := spartan.UniformTolerances(tbl, 0.01, 0)
	fmt.Println("entries:", len(tol))
	fmt.Println("numeric is quantile-form:", tol[0].Quantile)
	// Output:
	// entries: 4
	// numeric is quantile-form: true
}
