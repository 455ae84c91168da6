// CDR warehouse: the paper's motivating scenario (§1). A telecom provider
// stores call-detail records and wants guaranteed-error lossy compression
// for archival and for shipping data to bandwidth-constrained analysts.
//
// This example generates a synthetic CDR table, compresses it at several
// tolerance levels, and shows how the tariff structure (rate → plan, peak,
// call type) is captured by CaRT models instead of stored columns.
//
//	go run ./examples/cdr
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strconv"

	"repro"
)

func main() {
	tbl := generateCDRs(50000)
	fmt.Printf("call-detail table: %d records, %d attributes, raw %d B\n\n",
		tbl.NumRows(), tbl.NumCols(), tbl.RawSizeBytes())

	for _, frac := range []float64{0, 0.01, 0.05} {
		tol := spartan.UniformTolerances(tbl, frac, 0)
		var archive bytes.Buffer
		stats, err := spartan.Compress(context.Background(), &archive, tbl,
			spartan.Options{Tolerances: tol}, spartan.SegmentOptions{})
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
		label := "lossless"
		if frac > 0 {
			label = fmt.Sprintf("±%.0f%% numeric", frac*100)
		}
		fmt.Printf("%-12s ratio %.3f  (%d B; %d columns predicted: %v)\n",
			label, stats.Ratio, stats.CompressedBytes, len(stats.Predicted), stats.Predicted)

		// Demonstrate an approximate aggregate on the restored data: the
		// total charged amount is close to the true total.
		fmt.Printf("%-12s total charge: true %.0f, restored %.0f (%.3f%% off)\n\n",
			"", totalCharge(tbl), totalCharge(restored),
			100*math.Abs(totalCharge(tbl)-totalCharge(restored))/totalCharge(tbl))
	}
}

func totalCharge(t *spartan.Table) float64 {
	col := t.ColByName("charge_cents")
	sum := 0.0
	for _, v := range col.Floats {
		sum += v
	}
	return sum
}

// generateCDRs synthesizes fixed-length call-detail records with the
// dependency structure of a real tariff: rate is a function of plan, call
// type and time of day; charge is duration × rate.
func generateCDRs(n int) *spartan.Table {
	schema := spartan.Schema{
		{Name: "start_hour", Kind: spartan.Numeric},
		{Name: "duration_sec", Kind: spartan.Numeric},
		{Name: "rate_cents_min", Kind: spartan.Numeric},
		{Name: "charge_cents", Kind: spartan.Numeric},
		{Name: "src_exchange", Kind: spartan.Categorical},
		{Name: "dst_exchange", Kind: spartan.Categorical},
		{Name: "trunk", Kind: spartan.Categorical},
		{Name: "plan", Kind: spartan.Categorical},
		{Name: "peak", Kind: spartan.Categorical},
		{Name: "call_type", Kind: spartan.Categorical},
	}
	b, err := spartan.NewBuilder(schema)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	exchanges := []string{"201", "212", "315", "408", "415", "607", "716", "908"}
	plans := []string{"basic", "saver", "business"}
	rates := map[string]float64{"basic": 10, "saver": 7, "business": 5}
	for i := 0; i < n; i++ {
		hour := float64(rng.Intn(24))
		dur := math.Round(math.Abs(rng.NormFloat64())*240 + 20)
		src := exchanges[rng.Intn(len(exchanges))]
		dst := exchanges[rng.Intn(len(exchanges))]
		callType := "local"
		if src != dst {
			callType = "long_distance"
		}
		plan := plans[rng.Intn(len(plans))]
		rate := rates[plan]
		if callType == "long_distance" {
			rate *= 2.5
		}
		peak := "peak"
		if hour >= 19 || hour < 7 {
			peak = "offpeak"
			rate *= 0.6
		}
		charge := math.Round(dur / 60 * rate)
		trunk := src + "-T" + strconv.Itoa(rng.Intn(3))
		if err := b.AppendRow(hour, dur, float64(float32(rate)), charge,
			src, dst, trunk, plan, peak, callType); err != nil {
			log.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return t
}
