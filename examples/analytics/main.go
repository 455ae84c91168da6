// Analytics over compressed data: the paper's drill-down scenario (§1).
// An analyst explores an archived table through approximate aggregates
// whose error is bounded by the compression tolerances — fast first
// answers, guarantees included.
//
//	go run ./examples/analytics
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	tbl := generateSales(80000)
	tol := spartan.UniformTolerances(tbl, 0.02, 0)

	var archive bytes.Buffer
	stats, err := spartan.Compress(context.Background(), &archive, tbl,
		spartan.Options{Tolerances: tol}, spartan.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sales table: %d rows, raw %.1f MB, compressed to %.1f%%\n\n",
		tbl.NumRows(), float64(stats.RawBytes)/1e6, 100*stats.Ratio)

	// The analyst works from the compressed archive only.
	restored, err := spartan.Decompress(&archive)
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, q spartan.Query) *spartan.QueryResult {
		res, err := spartan.RunQuery(restored, tol, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(label)
		for _, g := range res.Groups {
			key := g.Key
			if key == "" {
				key = "(all)"
			}
			fmt.Printf("  %-12s %14.0f   guaranteed in [%.0f, %.0f]\n",
				key, g.Value, g.Lo, g.Hi)
		}
		fmt.Println()
		return res
	}

	// Drill-down sequence: total revenue → by region → large orders only.
	run("SELECT SUM(revenue):",
		spartan.Query{Agg: spartan.Sum, Column: "revenue"})

	run("SELECT SUM(revenue) GROUP BY region:",
		spartan.Query{Agg: spartan.Sum, Column: "revenue", GroupBy: "region"})

	run("SELECT COUNT(*) WHERE revenue > 5000 GROUP BY channel:",
		spartan.Query{
			Agg:     spartan.Count,
			Where:   spartan.NumCmp("revenue", spartan.Gt, 5000),
			GroupBy: "channel",
		})

	run("SELECT AVG(unit_price) WHERE region = 'emea' AND quantity >= 10:",
		spartan.Query{
			Agg:    spartan.Avg,
			Column: "unit_price",
			Where: spartan.QAnd(
				spartan.CatEq("region", "emea"),
				spartan.NumCmp("quantity", spartan.Ge, 10),
			),
		})
}

// generateSales synthesizes an order-line table: revenue = price ×
// quantity, price depends on the product tier, shipping class follows the
// channel.
func generateSales(n int) *spartan.Table {
	schema := spartan.Schema{
		{Name: "quantity", Kind: spartan.Numeric},
		{Name: "unit_price", Kind: spartan.Numeric},
		{Name: "revenue", Kind: spartan.Numeric},
		{Name: "tier", Kind: spartan.Categorical},
		{Name: "region", Kind: spartan.Categorical},
		{Name: "channel", Kind: spartan.Categorical},
		{Name: "ship_class", Kind: spartan.Categorical},
	}
	b, err := spartan.NewBuilder(schema)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tiers := []string{"basic", "plus", "pro"}
	tierPrice := map[string]float64{"basic": 19, "plus": 49, "pro": 199}
	regions := []string{"amer", "emea", "apac"}
	channels := []string{"web", "retail", "partner"}
	shipOf := map[string]string{"web": "parcel", "retail": "pickup", "partner": "freight"}
	for i := 0; i < n; i++ {
		tier := tiers[rng.Intn(len(tiers))]
		qty := float64(1 + rng.Intn(40))
		price := tierPrice[tier]
		channel := channels[rng.Intn(len(channels))]
		if err := b.AppendRow(qty, price, qty*price, tier,
			regions[rng.Intn(len(regions))], channel, shipOf[channel]); err != nil {
			log.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return t
}
