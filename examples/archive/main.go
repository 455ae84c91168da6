// Archival: lossless semantic compression (all tolerances zero) compared
// against plain gzip of the serialized table. Even with ē = 0, SPARTAN can
// eliminate functionally-dependent columns entirely — the CaRT predicts
// them exactly and no outliers are needed — which byte-level gzip cannot
// see.
//
//	go run ./examples/archive
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"log"
	"math/rand"
	"strconv"

	"repro"
)

func main() {
	tbl := generateInventory(40000)
	fmt.Printf("inventory table: %d rows, raw %d B\n\n", tbl.NumRows(), tbl.RawSizeBytes())

	// Lossless SPARTAN: nil tolerances mean ē = 0.
	var archive bytes.Buffer
	stats, err := spartan.Compress(context.Background(), &archive, tbl, spartan.Options{}, spartan.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	restored, err := spartan.Decompress(&archive)
	if err != nil {
		log.Fatal(err)
	}
	if err := spartan.Verify(tbl, restored, nil); err != nil {
		log.Fatal(err) // nil tolerances demand exact equality
	}
	fmt.Printf("spartan (lossless): %7d B  ratio %.3f  predicted: %v\n",
		stats.CompressedBytes, stats.Ratio, stats.Predicted)

	// Plain gzip of the serialized table for comparison.
	var raw bytes.Buffer
	if err := spartan.WriteBinary(&raw, tbl); err != nil {
		log.Fatal(err)
	}
	var gz bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		log.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gzip:               %7d B  ratio %.3f\n",
		gz.Len(), float64(gz.Len())/float64(tbl.RawSizeBytes()))
}

// generateInventory synthesizes a product inventory with derived columns:
// the category is recoverable from the SKU prefix, shipping is a fixed fee
// per (region, category), the VAT class follows the category, and the
// warehouse determines the region.
func generateInventory(n int) *spartan.Table {
	schema := spartan.Schema{
		{Name: "net_cents", Kind: spartan.Numeric},
		{Name: "shipping_cents", Kind: spartan.Numeric},
		{Name: "stock", Kind: spartan.Numeric},
		{Name: "sku_prefix", Kind: spartan.Categorical},
		{Name: "category", Kind: spartan.Categorical},
		{Name: "vat_class", Kind: spartan.Categorical},
		{Name: "warehouse", Kind: spartan.Categorical},
		{Name: "region", Kind: spartan.Categorical},
	}
	b, err := spartan.NewBuilder(schema)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	categories := []string{"food", "books", "electronics", "clothing"}
	shipBase := map[string]float64{"food": 499, "books": 299, "electronics": 899, "clothing": 399}
	vatClass := map[string]string{"food": "reduced", "books": "reduced", "electronics": "standard", "clothing": "standard"}
	regionOf := map[string]string{"W1": "north", "W2": "north", "W3": "south", "W4": "south"}
	for i := 0; i < n; i++ {
		cat := categories[rng.Intn(len(categories))]
		net := float64(100 + rng.Intn(49900))
		wh := "W" + strconv.Itoa(1+rng.Intn(4))
		region := regionOf[wh]
		shipping := shipBase[cat]
		if region == "south" {
			shipping += 200
		}
		if err := b.AppendRow(net, shipping, float64(rng.Intn(500)),
			"SKU-"+cat[:2], cat, vatClass[cat], wh, region); err != nil {
			log.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return t
}
