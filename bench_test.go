package spartan

// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// table/figure, plus raw compress/decompress throughput and the ablation
// benches DESIGN.md calls out. Compression ratios are reported as custom
// metrics so `go test -bench` output doubles as the experiment record;
// cmd/spartanbench produces the same numbers in tabular form at larger
// scale.

import (
	"bytes"
	"testing"

	"repro/internal/cart"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/table"
)

// benchRows keeps every benchmark iteration under ~a second; the
// spartanbench command runs the same experiments at the (larger) default
// scales.
const benchRows = 4000

// --- Figure 5: compression ratio vs error threshold, per dataset ---------

func benchmarkFig5(b *testing.B, d experiments.Dataset, frac float64) {
	t, err := d.Load(benchRows, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	var last *experiments.Measurement
	for i := 0; i < b.N; i++ {
		m, err := experiments.MeasureTable(t, d, frac)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(last.Gzip.Ratio, "gzip-ratio")
	b.ReportMetric(last.Fascicles.Ratio, "fascicle-ratio")
	b.ReportMetric(last.Spartan.Ratio, "spartan-ratio")
}

func BenchmarkFig5CorelLowTolerance(b *testing.B)   { benchmarkFig5(b, experiments.Corel, 0.01) }
func BenchmarkFig5CorelHighTolerance(b *testing.B)  { benchmarkFig5(b, experiments.Corel, 0.10) }
func BenchmarkFig5ForestLowTolerance(b *testing.B)  { benchmarkFig5(b, experiments.ForestCover, 0.01) }
func BenchmarkFig5ForestHighTolerance(b *testing.B) { benchmarkFig5(b, experiments.ForestCover, 0.10) }
func BenchmarkFig5CensusLowTolerance(b *testing.B)  { benchmarkFig5(b, experiments.Census, 0.01) }
func BenchmarkFig5CensusHighTolerance(b *testing.B) { benchmarkFig5(b, experiments.Census, 0.10) }

// --- Figure 6(a): compression ratio vs sample size ------------------------

func benchmarkFig6aSample(b *testing.B, sampleBytes int) {
	t, err := experiments.ForestCover.Load(benchRows, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		Tolerances:  table.UniformTolerances(t, 0.01, 0),
		SampleBytes: sampleBytes,
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunSpartan(t, opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "spartan-ratio")
}

func BenchmarkFig6aSample25KB(b *testing.B)  { benchmarkFig6aSample(b, 25<<10) }
func BenchmarkFig6aSample50KB(b *testing.B)  { benchmarkFig6aSample(b, 50<<10) }
func BenchmarkFig6aSample100KB(b *testing.B) { benchmarkFig6aSample(b, 100<<10) }
func BenchmarkFig6aSample200KB(b *testing.B) { benchmarkFig6aSample(b, 200<<10) }

// --- Figure 6(b): running time vs error threshold -------------------------

func benchmarkFig6bTolerance(b *testing.B, frac float64) {
	t, err := experiments.Census.Load(benchRows, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Tolerances: table.UniformTolerances(t, frac, 0)}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RunSpartan(t, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bTolerance05pct(b *testing.B) { benchmarkFig6bTolerance(b, 0.005) }
func BenchmarkFig6bTolerance1pct(b *testing.B)  { benchmarkFig6bTolerance(b, 0.01) }
func BenchmarkFig6bTolerance5pct(b *testing.B)  { benchmarkFig6bTolerance(b, 0.05) }
func BenchmarkFig6bTolerance10pct(b *testing.B) { benchmarkFig6bTolerance(b, 0.10) }

// --- Figure 6(c): running time vs sample size is the timing view of the
// Fig6aSample* benchmarks above (ns/op vs sample size).

// --- Table 1: CaRT-selection algorithms -----------------------------------

func benchmarkTable1(b *testing.B, strat core.SelectionStrategy) {
	t, err := experiments.Census.Load(benchRows, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		Tolerances: table.UniformTolerances(t, 0.01, 0),
		Selection:  strat,
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	var carts int
	for i := 0; i < b.N; i++ {
		res, stats, err := experiments.RunSpartan(t, opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio, carts = res.Ratio, stats.CartsBuilt
	}
	b.ReportMetric(ratio, "spartan-ratio")
	b.ReportMetric(float64(carts), "carts")
}

func BenchmarkTable1Greedy(b *testing.B)     { benchmarkTable1(b, core.SelectGreedy) }
func BenchmarkTable1WMISParent(b *testing.B) { benchmarkTable1(b, core.SelectWMISParents) }
func BenchmarkTable1WMISMarkov(b *testing.B) { benchmarkTable1(b, core.SelectWMISMarkov) }

// --- Core throughput -------------------------------------------------------

func BenchmarkCompressCDR(b *testing.B) {
	t := datagen.CDR(benchRows, 1)
	opts := Options{Tolerances: UniformTolerances(t, 0.01, 0)}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compressBytes(t, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressCDR(b *testing.B) {
	t := datagen.CDR(benchRows, 1)
	data, _, err := compressBytes(t, Options{Tolerances: UniformTolerances(t, 0.01, 0)})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (§3.3, §4.2 and DESIGN.md §8) ------------------------------

// BenchmarkAblationPruneIntegrated/After reproduce the paper's finding
// that integrating pruning into tree growth cuts CaRT build time (§4.2
// reports ~25%).
func benchmarkPruneMode(b *testing.B, mode cart.PruneMode) {
	t := datagen.Corel(benchRows, 1)
	opts := core.Options{
		Tolerances: table.UniformTolerances(t, 0.01, 0),
		Prune:      mode,
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunSpartan(t, opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "spartan-ratio")
}

func BenchmarkAblationPruneIntegrated(b *testing.B) { benchmarkPruneMode(b, cart.PruneIntegrated) }
func BenchmarkAblationPruneAfter(b *testing.B)      { benchmarkPruneMode(b, cart.PruneAfter) }

// BenchmarkAblationRowAgg{On,Off} isolate the RowAggregator's contribution.
func benchmarkRowAgg(b *testing.B, disable bool) {
	t := datagen.CDR(benchRows, 1)
	opts := core.Options{
		Tolerances:            table.UniformTolerances(t, 0.05, 0),
		DisableRowAggregation: disable,
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunSpartan(t, opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "spartan-ratio")
}

func BenchmarkAblationRowAggOn(b *testing.B)  { benchmarkRowAgg(b, false) }
func BenchmarkAblationRowAggOff(b *testing.B) { benchmarkRowAgg(b, true) }
