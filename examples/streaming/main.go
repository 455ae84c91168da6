// Streaming archive: compress a table far larger than you'd want in
// memory by feeding rows in blocks. The CaRT models are learned from the
// first block and shared by every block, which adds its own outliers and
// materialized columns, and the archive's footer lets a reader restore
// blocks one at a time — memory stays bounded by the block size on both
// sides.
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
)

const (
	totalRows = 120000
	blockRows = 20000
)

func main() {
	// Absolute tolerances: the bound does not depend on which rows the
	// models were learned from.
	tol := spartan.Tolerances{
		{Value: 0},    // sensor id exact (categorical)
		{Value: 0.25}, // temperature ±0.25°C
		{Value: 5},    // humidity ±5 (per mille)
		{Value: 2},    // battery ±2 mV of trend
	}

	var buf bytes.Buffer
	aw, err := spartan.NewArchiveWriter(&buf, spartan.Options{Tolerances: tol})
	if err != nil {
		log.Fatal(err)
	}
	rawTotal := 0
	rng := rand.New(rand.NewSource(9))
	for wrote := 0; wrote < totalRows; wrote += blockRows {
		block := sensorBlock(rng, blockRows)
		rawTotal += block.RawSizeBytes()
		stats, err := aw.WriteBlock(block)
		if err != nil {
			log.Fatal(err)
		}
		if aw.Blocks() == 1 {
			fmt.Printf("models learned from the first block predict %v\n", stats.Predicted)
		}
		fmt.Printf("block %6d rows: %7d B -> %6d B (ratio %.3f, %d outliers)\n",
			block.NumRows(), stats.RawBytes, stats.CompressedBytes, stats.Ratio, stats.Outliers)
	}
	if err := aw.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\narchive: %d B for %d raw B (ratio %.3f, %d blocks)\n\n",
		buf.Len(), rawTotal, float64(buf.Len())/float64(rawTotal), aw.Blocks())

	// Read back block by block through the footer: memory stays bounded
	// by one block on the consumer too.
	a, err := spartan.OpenArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	rows := 0
	for i := 0; i < a.NumSegments(); i++ {
		block, err := a.Segment(i)
		if err != nil {
			log.Fatal(err)
		}
		rows += block.NumRows()
	}
	fmt.Printf("restored %d rows from %d blocks\n", rows, a.NumSegments())
}

// sensorBlock synthesizes one batch of sensor telemetry: temperature and
// humidity follow each sensor's site profile, battery decays slowly.
func sensorBlock(rng *rand.Rand, n int) *spartan.Table {
	schema := spartan.Schema{
		{Name: "sensor", Kind: spartan.Categorical},
		{Name: "temp_c", Kind: spartan.Numeric},
		{Name: "humidity", Kind: spartan.Numeric},
		{Name: "battery_mv", Kind: spartan.Numeric},
	}
	b, err := spartan.NewBuilder(schema)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		site := rng.Intn(12)
		base := 12 + float64(site)
		temp := math.Round((base+rng.Float64())*4) / 4
		hum := math.Round(600 - 10*base + 20*rng.Float64())
		batt := math.Round(3000 - 40*float64(site) - 3*rng.Float64())
		if err := b.AppendRow(fmt.Sprintf("s%02d", site), temp, hum, batt); err != nil {
			log.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return t
}
