// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) against the synthetic stand-in datasets: Figure 5
// (compression ratio vs error threshold × three datasets), Figures 6(a-c)
// (sample-size and running-time sweeps), Table 1 (CaRT-selection
// algorithms), and the ablations DESIGN.md calls out. The `spartanbench`
// command drives this package; its smoke tests run each experiment at
// small scale.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/archive"
	"repro/internal/cart"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fascicle"
	"repro/internal/gzipref"
	"repro/internal/obs"
	"repro/internal/pzipref"
	"repro/internal/table"
)

// TraceSink, when non-nil, makes every RunSpartan call trace its pipeline
// and print the per-phase span tree there — `spartanbench -trace` wires
// it to stdout so the paper's running-time breakdowns (Figure 6b/6c,
// Table 1) can be decomposed per component. Set it before starting a run;
// the harness executes measurements sequentially.
var TraceSink io.Writer

// Dataset identifies one of the evaluation tables.
type Dataset string

// The paper's three datasets (synthetic stand-ins; see DESIGN.md §4).
const (
	Corel       Dataset = "corel"
	ForestCover Dataset = "forest"
	Census      Dataset = "census"
)

// AllDatasets lists the evaluation datasets in the paper's plot order.
var AllDatasets = []Dataset{Corel, ForestCover, Census}

// DefaultRows returns the row count used when the caller does not override
// it: scaled-down versions of the paper's table sizes that keep a full
// sweep under a minute per dataset. The paper used 68k (Corel), 581k
// (Forest-cover) and 676k (Census) rows; the ratio *shapes* are stable
// under this scaling (see EXPERIMENTS.md).
func (d Dataset) DefaultRows() int {
	switch d {
	case Corel:
		return 15000
	case ForestCover:
		return 25000
	default:
		return 30000
	}
}

// FascicleK returns the paper's best-performing compact-attribute count
// for the standalone fascicle baseline (§4.1): 6 for Corel, 36 for
// Forest-cover, 9 for Census.
func (d Dataset) FascicleK() int {
	switch d {
	case Corel:
		return 6
	case ForestCover:
		return 36
	default:
		return 9
	}
}

// Load generates the dataset with n rows (0 = DefaultRows).
func (d Dataset) Load(n int, seed int64) (*table.Table, error) {
	if n <= 0 {
		n = d.DefaultRows()
	}
	switch d {
	case Corel:
		return datagen.Corel(n, seed), nil
	case ForestCover:
		return datagen.ForestCover(n, seed), nil
	case Census:
		return datagen.Census(n, seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", d)
	}
}

// CompressorResult is one (algorithm, dataset, tolerance) measurement.
type CompressorResult struct {
	Bytes   int
	Ratio   float64
	Elapsed time.Duration
}

// Measurement bundles the three §4.1 compressors on one configuration.
type Measurement struct {
	Dataset   Dataset
	Rows      int
	Tolerance float64 // numeric error threshold as fraction of range
	Gzip      CompressorResult
	Fascicles CompressorResult
	Spartan   CompressorResult
	Stats     *core.Stats // SPARTAN's detailed stats
}

// RunGzip measures the gzip baseline.
func RunGzip(t *table.Table) (CompressorResult, error) {
	start := time.Now()
	data, err := gzipref.Compress(t)
	if err != nil {
		return CompressorResult{}, err
	}
	return result(t, len(data), start), nil
}

// RunFascicles measures the standalone fascicle baseline with the paper's
// per-dataset parameters.
func RunFascicles(t *table.Table, d Dataset, frac float64) (CompressorResult, error) {
	start := time.Now()
	data, err := fascicle.Compress(t, fascicleParams(t, d, frac), true)
	if err != nil {
		return CompressorResult{}, err
	}
	return result(t, len(data), start), nil
}

// fascicleParams gives every numeric attribute of t frac of its range as
// width and takes d's compact-attribute count.
func fascicleParams(t *table.Table, d Dataset, frac float64) fascicle.Params {
	widths := make([]float64, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		if t.Attr(i).Kind == table.Numeric {
			widths[i] = frac * t.Col(i).Range()
		}
	}
	return fascicle.Params{K: d.FascicleK(), Widths: widths}
}

// RunPzip measures the pzip-style column-grouping baseline (lossless;
// the paper's reference [3]).
func RunPzip(t *table.Table) (CompressorResult, error) {
	start := time.Now()
	data, err := pzipref.Compress(t)
	if err != nil {
		return CompressorResult{}, err
	}
	return result(t, len(data), start), nil
}

// RunSpartan measures SPARTAN with the given options, returning both the
// measurement and the detailed stats. With TraceSink set, the run is
// traced and its span tree printed.
func RunSpartan(t *table.Table, opts core.Options) (CompressorResult, *core.Stats, error) {
	start := time.Now()
	if TraceSink != nil && opts.Trace == nil {
		opts.Trace = obs.NewTrace(fmt.Sprintf("spartan rows=%d", t.NumRows()))
		// Printed trees carry per-phase allocation attribution alongside
		// durations (see obs.Span.Resources).
		opts.Trace.CaptureResources()
	}
	var counter countingWriter
	stats, err := archive.WriteTableContext(context.Background(), &counter, t, opts, archive.SegmentOptions{})
	if err != nil {
		return CompressorResult{}, nil, err
	}
	if TraceSink != nil {
		opts.Trace.WriteTree(TraceSink)
	}
	return result(t, counter.n, start), &stats.Stats, nil
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func result(t *table.Table, bytes int, start time.Time) CompressorResult {
	return CompressorResult{
		Bytes:   bytes,
		Ratio:   float64(bytes) / float64(t.RawSizeBytes()),
		Elapsed: time.Since(start),
	}
}

// Measure runs all three compressors on one configuration.
func Measure(d Dataset, rows int, frac float64, seed int64) (*Measurement, error) {
	t, err := d.Load(rows, seed)
	if err != nil {
		return nil, err
	}
	return MeasureTable(t, d, frac)
}

// MeasureTable is Measure on a pre-generated table (so sweeps can reuse
// one generation).
func MeasureTable(t *table.Table, d Dataset, frac float64) (*Measurement, error) {
	m := &Measurement{Dataset: d, Rows: t.NumRows(), Tolerance: frac}
	var err error
	if m.Gzip, err = RunGzip(t); err != nil {
		return nil, fmt.Errorf("gzip on %s: %w", d, err)
	}
	if m.Fascicles, err = RunFascicles(t, d, frac); err != nil {
		return nil, fmt.Errorf("fascicles on %s: %w", d, err)
	}
	opts := core.Options{Tolerances: table.UniformTolerances(t, frac, 0)}
	if m.Spartan, m.Stats, err = RunSpartan(t, opts); err != nil {
		return nil, fmt.Errorf("spartan on %s: %w", d, err)
	}
	return m, nil
}

// Thresholds is the error-threshold sweep of Figure 5 (fractions of each
// numeric attribute's range).
var Thresholds = []float64{0.005, 0.01, 0.025, 0.05, 0.10}

// Fig5 regenerates one panel of Figure 5: compression ratio vs error
// threshold for the three compressors on one dataset. Progress lines go
// to w if non-nil.
func Fig5(d Dataset, rows int, seed int64, w io.Writer) ([]*Measurement, error) {
	t, err := d.Load(rows, seed)
	if err != nil {
		return nil, err
	}
	var out []*Measurement
	for _, frac := range Thresholds {
		m, err := MeasureTable(t, d, frac)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		if w != nil {
			fmt.Fprintf(w, "%-8s e=%5.1f%%  gzip %.3f  fascicles %.3f  spartan %.3f\n",
				d, frac*100, m.Gzip.Ratio, m.Fascicles.Ratio, m.Spartan.Ratio)
		}
	}
	return out, nil
}

// SampleSizes is the Figure 6(a)/6(c) sweep (bytes).
var SampleSizes = []int{25 << 10, 50 << 10, 100 << 10, 200 << 10}

// SamplePoint is one Figure 6(a)/6(c) measurement.
type SamplePoint struct {
	SampleBytes int
	Ratio       float64
	Elapsed     time.Duration
	Stats       *core.Stats
}

// Fig6a regenerates Figure 6(a): SPARTAN's compression ratio vs sample
// size on Forest-cover (plus gzip/fascicle reference lines via Measure).
func Fig6a(d Dataset, rows int, frac float64, seed int64, w io.Writer) ([]SamplePoint, error) {
	t, err := d.Load(rows, seed)
	if err != nil {
		return nil, err
	}
	var out []SamplePoint
	for _, sb := range SampleSizes {
		opts := core.Options{
			Tolerances:  table.UniformTolerances(t, frac, 0),
			SampleBytes: sb,
		}
		res, stats, err := RunSpartan(t, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, SamplePoint{SampleBytes: sb, Ratio: res.Ratio, Elapsed: res.Elapsed, Stats: stats})
		if w != nil {
			fmt.Fprintf(w, "%-8s sample=%3dKB  ratio %.3f  time %v\n",
				d, sb>>10, res.Ratio, res.Elapsed.Round(time.Millisecond))
		}
	}
	return out, nil
}

// TimePoint is one Figure 6(b) measurement.
type TimePoint struct {
	Tolerance float64
	Elapsed   time.Duration
	Stats     *core.Stats
}

// Fig6b regenerates Figure 6(b): SPARTAN running time vs error threshold.
func Fig6b(d Dataset, rows int, seed int64, w io.Writer) ([]TimePoint, error) {
	t, err := d.Load(rows, seed)
	if err != nil {
		return nil, err
	}
	var out []TimePoint
	for _, frac := range Thresholds {
		opts := core.Options{Tolerances: table.UniformTolerances(t, frac, 0)}
		res, stats, err := RunSpartan(t, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, TimePoint{Tolerance: frac, Elapsed: res.Elapsed, Stats: stats})
		if w != nil {
			fmt.Fprintf(w, "%-8s e=%5.1f%%  time %v (carts %v, outliers %v)\n",
				d, frac*100, res.Elapsed.Round(time.Millisecond),
				stats.Timings.CaRTSelection.Round(time.Millisecond),
				stats.Timings.OutlierScan.Round(time.Millisecond))
		}
	}
	return out, nil
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Dataset    Dataset
	Strategy   core.SelectionStrategy
	Ratio      float64
	Elapsed    time.Duration
	CartsBuilt int
}

// Table1Strategies lists the three §4.2 selection configurations.
var Table1Strategies = []core.SelectionStrategy{
	core.SelectGreedy, core.SelectWMISParents, core.SelectWMISMarkov,
}

// Table1 regenerates Table 1: compression ratio and running time per
// CaRT-selection algorithm per dataset, at the default 1% tolerance.
func Table1(datasets []Dataset, rows int, seed int64, w io.Writer) ([]Table1Row, error) {
	var out []Table1Row
	for _, d := range datasets {
		t, err := d.Load(rows, seed)
		if err != nil {
			return nil, err
		}
		for _, strat := range Table1Strategies {
			opts := core.Options{
				Tolerances: table.UniformTolerances(t, 0.01, 0),
				Selection:  strat,
			}
			res, stats, err := RunSpartan(t, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, Table1Row{
				Dataset: d, Strategy: strat, Ratio: res.Ratio,
				Elapsed: res.Elapsed, CartsBuilt: stats.CartsBuilt,
			})
			if w != nil {
				fmt.Fprintf(w, "%-8s %-13s ratio %.3f  time %8v  carts %d\n",
					d, strat, res.Ratio, res.Elapsed.Round(time.Millisecond), stats.CartsBuilt)
			}
		}
	}
	return out, nil
}

// LosslessRow is one ē=0 comparison measurement.
type LosslessRow struct {
	Dataset Dataset
	Gzip    CompressorResult
	Pzip    CompressorResult
	Spartan CompressorResult
}

// Lossless compares the fully lossless compressors: sorted gzip, the
// pzip-style column-grouping baseline, and SPARTAN with all tolerances
// zero (where exactly-predictable columns still vanish into CaRTs).
func Lossless(d Dataset, rows int, seed int64, w io.Writer) (*LosslessRow, error) {
	t, err := d.Load(rows, seed)
	if err != nil {
		return nil, err
	}
	out := &LosslessRow{Dataset: d}
	if out.Gzip, err = RunGzip(t); err != nil {
		return nil, err
	}
	if out.Pzip, err = RunPzip(t); err != nil {
		return nil, err
	}
	if out.Spartan, _, err = RunSpartan(t, core.Options{}); err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprintf(w, "%-8s gzip %.3f  pzip %.3f  spartan %.3f\n",
			d, out.Gzip.Ratio, out.Pzip.Ratio, out.Spartan.Ratio)
	}
	return out, nil
}

// AblationRow is one design-choice ablation measurement.
type AblationRow struct {
	Name    string
	Ratio   float64
	Elapsed time.Duration
}

// Ablations measures SPARTAN's design knobs on one dataset at the default
// tolerance: integrated vs post pruning, the RowAggregator's grid on/off.
func Ablations(d Dataset, rows int, seed int64, w io.Writer) ([]AblationRow, error) {
	t, err := d.Load(rows, seed)
	if err != nil {
		return nil, err
	}
	tol := table.UniformTolerances(t, 0.01, 0)
	configs := []struct {
		name string
		opts core.Options
	}{
		{"default (integrated prune, 2e grid)", core.Options{Tolerances: tol}},
		{"prune after building", core.Options{Tolerances: tol, Prune: cart.PruneAfter}},
		{"row aggregation off", core.Options{Tolerances: tol, DisableRowAggregation: true}},
		{"greedy selection", core.Options{Tolerances: tol, Selection: core.SelectGreedy}},
	}
	var out []AblationRow
	for _, cfg := range configs {
		res, _, err := RunSpartan(t, cfg.opts)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Name: cfg.name, Ratio: res.Ratio, Elapsed: res.Elapsed})
		if w != nil {
			fmt.Fprintf(w, "%-40s ratio %.3f  time %v\n",
				cfg.name, res.Ratio, res.Elapsed.Round(time.Millisecond))
		}
	}
	return out, nil
}
