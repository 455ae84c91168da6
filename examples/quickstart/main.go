// Quickstart: compress the 8-tuple example table from Figure 1 of the
// SPARTAN paper, then decompress it and check the error guarantees.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"

	"repro"
)

func main() {
	// The table of Figure 1(a): age, salary, assets are numeric; credit is
	// categorical.
	schema := spartan.Schema{
		{Name: "age", Kind: spartan.Numeric},
		{Name: "salary", Kind: spartan.Numeric},
		{Name: "assets", Kind: spartan.Numeric},
		{Name: "credit", Kind: spartan.Categorical},
	}
	builder, err := spartan.NewBuilder(schema)
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
		if err := builder.AppendRow(r...); err != nil {
			log.Fatal(err)
		}
	}
	tbl, err := builder.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Example 1.1's tolerances: age ±2, salary ±5,000, assets ±25,000,
	// credit exact. Tolerances are positional (schema order); numeric ones
	// here are absolute values, so Quantile stays false.
	tol := spartan.Tolerances{
		{Value: 2},
		{Value: 5000},
		{Value: 25000},
		{Value: 0},
	}

	ctx := context.Background()
	var archive bytes.Buffer
	stats, err := spartan.Compress(ctx, &archive, tbl, spartan.Options{Tolerances: tol}, spartan.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw %d B -> compressed %d B (ratio %.3f)\n",
		stats.RawBytes, stats.CompressedBytes, stats.Ratio)
	fmt.Printf("predicted attributes:    %v\n", stats.Predicted)
	fmt.Printf("materialized attributes: %v\n", stats.Materialized)

	restored, err := spartan.Decompress(&archive)
	if err != nil {
		log.Fatal(err)
	}
	if err := spartan.Verify(tbl, restored, tol); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nerror bounds verified; reconstructed table:")
	fmt.Printf("%-5s %-8s %-8s %-6s\n", "age", "salary", "assets", "credit")
	for r := 0; r < restored.NumRows(); r++ {
		fmt.Printf("%-5.0f %-8.0f %-8.0f %-6s",
			restored.Float(r, 0), restored.Float(r, 1), restored.Float(r, 2),
			restored.CatString(r, 3))
		if d := math.Abs(restored.Float(r, 2) - tbl.Float(r, 2)); d > 0 {
			fmt.Printf("   (assets off by %.0f, within ±25,000)", d)
		}
		fmt.Println()
	}

	// At 8 rows a CaRT costs more than the column it would replace, so
	// nothing is predicted above. Scale the same population to 20,000
	// rows and the economics flip: credit and assets get CaRT models.
	big := scaledPopulation(20000)
	bigTol := spartan.UniformTolerances(big, 0.05, 0)
	bigStats, err := spartan.Compress(ctx, io.Discard, big, spartan.Options{Tolerances: bigTol}, spartan.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame schema at %d rows, 5%% tolerance: ratio %.3f, predicted %v\n",
		big.NumRows(), bigStats.Ratio, bigStats.Predicted)
}

// scaledPopulation samples the credit-table population of Figure 1:
// salary drives both the credit class and (with age) the asset level.
func scaledPopulation(n int) *spartan.Table {
	schema := spartan.Schema{
		{Name: "age", Kind: spartan.Numeric},
		{Name: "salary", Kind: spartan.Numeric},
		{Name: "assets", Kind: spartan.Numeric},
		{Name: "credit", Kind: spartan.Categorical},
	}
	builder, err := spartan.NewBuilder(schema)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		age := float64(25 + rng.Intn(50))
		salary := float64(15+rng.Intn(96)) * 1000
		credit := "good"
		if salary < 40000 || (salary >= 95000 && salary < 105000) {
			credit = "poor"
		}
		assets := math.Round(salary*2 + age*500)
		builder.MustAppendRow(age, salary, assets, credit)
	}
	t, err := builder.Build()
	if err != nil {
		log.Fatal(err)
	}
	return t
}
