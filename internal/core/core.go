// Package core orchestrates SPARTAN's four components (paper §2.3) into
// the end-to-end compression pipeline:
//
//	DependencyFinder → CaRTSelector ⇄ CaRTBuilder → RowAggregator → codec
//
// The pipeline has two steps, each under its own trace root. Learn runs
// the dependency finder and CaRT selection on a sample and resolves
// tolerances against the whole input; its Model is read-only. Apply runs
// row aggregation, the outlier scan and the encoder over one set of rows
// and is the only step that produces per-row output: the outliers and T'
// of one codec body. Compress is Learn followed by one Apply over every
// row, written as a one-segment container, as the paper describes ("then
// uses the CaRTs built to compress the full data set in one pass"); a
// segmented archive learns once and applies per segment.
//
// It is the paper's primary contribution — everything else under internal/
// is a substrate it composes. The exported types here are re-exported by
// the root spartan package, which is the intended import path for users.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/codec"
	"repro/internal/fascicle"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/selector"
	"repro/internal/table"
)

// Span names emitted by the pipeline, one per component (paper §2.3)
// plus the encoder. Learn puts the first two under a SpanLearn root and
// Apply the last three under a SpanApply root. Consumers keying metrics
// or assertions off the trace should use these constants.
const (
	SpanLearn            = "learn"
	SpanApply            = "apply"
	SpanDependencyFinder = "dependency_finder"
	SpanCaRTSelection    = "cart_selection"
	SpanRowAggregation   = "row_aggregation"
	SpanOutlierScan      = "outlier_scan"
	SpanEncode           = "encode"
)

// PhaseSpans lists the per-component span names in pipeline order.
var PhaseSpans = []string{
	SpanDependencyFinder, SpanCaRTSelection, SpanRowAggregation, SpanOutlierScan, SpanEncode,
}

// SelectionStrategy picks the CaRTSelector algorithm (paper §3.2).
type SelectionStrategy int

const (
	// SelectWMISParents runs MaxIndependentSet with parent neighborhoods —
	// the paper's default and its best cost/time trade-off (Table 1).
	SelectWMISParents SelectionStrategy = iota
	// SelectWMISMarkov runs MaxIndependentSet with Markov-blanket
	// neighborhoods (slightly better ratios, slower).
	SelectWMISMarkov
	// SelectGreedy runs the single-pass Greedy selector.
	SelectGreedy
)

// String names the strategy as in Table 1 of the paper.
func (s SelectionStrategy) String() string {
	switch s {
	case SelectGreedy:
		return "Greedy"
	case SelectWMISMarkov:
		return "WMIS(Markov)"
	default:
		return "WMIS(Parent)"
	}
}

// Options configures compression. The zero value requests lossless
// compression with the paper's default knobs.
type Options struct {
	// Tolerances is the error-tolerance vector ē; nil means all-zero
	// (lossless). Quantile-form numeric entries are resolved against the
	// value ranges of the table the models are learned on.
	Tolerances table.Tolerances
	// SampleBytes is the model-inference sample size (the paper's default
	// is 50 KB, §4.1). Zero selects the default.
	SampleBytes int
	// Selection picks the CaRT-selection algorithm (default
	// SelectWMISParents).
	Selection SelectionStrategy
	// Theta is Greedy's relative-benefit threshold (default 2, §4.1).
	Theta float64
	// Prune selects the CaRT pruning strategy (default PruneIntegrated).
	Prune cart.PruneMode
	// DisableRowAggregation turns off the fascicle pass over T'
	// (ablation).
	DisableRowAggregation bool
	// Seed fixes all sampling randomness; zero means seed 1. Compression
	// is fully deterministic for a given (table, options) pair.
	Seed int64
	// Trace, when non-nil, receives one span per pipeline component
	// (see PhaseSpans) under its step's root (SpanLearn or SpanApply),
	// annotated with rows scanned, CaRTs built, outliers found and bytes
	// written. Tracing is always on internally — Timings is derived from
	// the spans — so supplying a Trace costs nothing extra.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.SampleBytes <= 0 {
		o.SampleBytes = 50 << 10
	}
	if o.Theta <= 0 {
		o.Theta = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Timings records per-component wall-clock time, mirroring the paper's
// §4.2 running-time accounting. It is derived from the pipeline trace
// spans (see Options.Trace), kept as a struct for convenient access.
type Timings struct {
	DependencyFinder time.Duration
	CaRTSelection    time.Duration // includes all CaRT builds
	OutlierScan      time.Duration // full-table pass applying the models
	RowAggregation   time.Duration
	Encode           time.Duration
}

// Total sums all phases.
func (t Timings) Total() time.Duration {
	return t.DependencyFinder + t.CaRTSelection + t.OutlierScan + t.RowAggregation + t.Encode
}

// Stats describes one compression run.
type Stats struct {
	RawBytes        int     // uncompressed fixed-record size of the input
	CompressedBytes int     // total output size
	Ratio           float64 // CompressedBytes / RawBytes (smaller is better)

	Predicted    []string // names of CaRT-predicted attributes
	Materialized []string // names of materialized attributes
	CartsBuilt   int      // CaRTs constructed during selection
	Outliers     int      // total outlier values stored
	Fascicles    int      // fascicles found by the RowAggregator

	HeaderBytes int // container framing, footer and zone maps, schema + dictionaries, attribute lists, row count
	ModelBytes  int // serialized CaRT trees and outliers
	TPrimeBytes int // materialized projection: frame index and deflated frames

	Timings Timings
}

// Compress writes t to w as a container with one segment holding every
// row: Learn, one Apply into a buffer, then the container with the
// model block. Its Stats are the totals of that container, the same
// archive.WriteTable reports for one segment. It stays because
// benchmark/workloads.go calls it and archive's tests take its bytes as
// the reference one-segment archive; every other writer goes through
// archive.WriteTableContext.
func Compress(w io.Writer, t *table.Table, opts Options) (*Stats, error) {
	ctx := context.Background()
	m, err := Learn(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	stats, err := m.Apply(ctx, &body, t)
	if err != nil {
		return nil, err
	}
	cw := codec.NewWriter(w)
	if err := cw.WriteSegment(body.Bytes(), t.NumRows(), codec.ComputeZones(t, m.resolved)); err != nil {
		return nil, err
	}
	block, err := cw.Close(m.block)
	if err != nil {
		return nil, err
	}
	m.AddLearnStats(stats)
	stats.ModelBytes += block.ModelBytes
	stats.CompressedBytes = int(cw.Size())
	stats.HeaderBytes = stats.CompressedBytes - stats.ModelBytes - stats.TPrimeBytes
	stats.Ratio = ratio(stats.CompressedBytes, stats.RawBytes)
	return stats, nil
}

// Model is the learn step's product: the tolerances resolved against the
// learn input, the selected CaRTs and the codec model block they
// serialize to. Nothing writes it after Learn — each Apply keeps its
// outliers to itself — so any number of Apply calls, one per archive
// segment, may share one Model concurrently.
type Model struct {
	opts     Options
	resolved table.Tolerances
	plan     *selector.Result
	block    *codec.ModelBlock
	learned  Stats // the learn step's share; see AddLearnStats
}

// Learn runs the learn step on t: the dependency finder on a sample of
// t, CaRT selection, and the resolution of quantile tolerances against
// all of t. Its dependency_finder and cart_selection spans go under a
// SpanLearn root on opts.Trace. A table whose archive the default reader
// would refuse is refused first, with codec.ErrExceedsLimits.
//
// Learn and Apply check ctx at every phase boundary and inside each
// phase's long-running inner loops (WMIS candidate rounds, per-node CaRT
// growth, fascicle seed growth, outlier row batches), so a cancelled or
// expired context abandons the step within milliseconds. The returned
// error wraps ctx.Err() together with the phase the step died in, and
// the trace span of that phase (plus the root) is annotated
// cancelled=true.
func Learn(ctx context.Context, t *table.Table, opts Options) (_ *Model, err error) {
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("spartan: nil or empty table")
	}
	if err := codec.CheckTable(t); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	root := startRoot(opts, SpanLearn, t)
	defer finishRoot(root, &err)
	tol := opts.Tolerances
	if tol == nil {
		tol = table.ZeroTolerances(t)
	}
	resolved, err := tol.Resolve(t)
	if err != nil {
		return nil, err
	}
	m := &Model{opts: opts, resolved: resolved}
	rng := rand.New(rand.NewSource(opts.Seed))

	// DependencyFinder: Bayesian network on a sample. A quarter of the
	// sample budget is held out for honest prediction-cost estimates
	// during selection.
	var (
		sample, build, holdout *table.Table
		net                    *bayesnet.Network
	)
	err = runPhase(ctx, root, SpanDependencyFinder, &m.learned.Timings.DependencyFinder, func(sp *obs.Span) error {
		sample = t.SampleBytes(opts.SampleBytes, rng)
		var err error
		build, holdout, err = splitSample(sample)
		if err != nil {
			return fmt.Errorf("spartan: dependency finder: %w", err)
		}
		net, err = bayesnet.Build(sample)
		if err != nil {
			return fmt.Errorf("spartan: dependency finder: %w", err)
		}
		sp.SetAttr("sample_rows", sample.NumRows()).
			SetAttr("sample_budget_bytes", opts.SampleBytes)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// CaRTSelector. Materialization costs are estimated by entropy-coding
	// the sample's columns, so the MaterCost-vs-PredCost trade-off matches
	// what the T' encoder actually achieves.
	err = runPhase(ctx, root, SpanCaRTSelection, &m.learned.Timings.CaRTSelection, func(sp *obs.Span) error {
		cost := cart.NewCostModel(t)
		materBits, err := estimateMaterBits(sample)
		if err != nil {
			return fmt.Errorf("spartan: CaRT selection: %w", err)
		}
		for i, bits := range materBits {
			cost.SetMaterBits(i, bits)
		}
		in := selector.Input{
			Sample:  cart.NewSample(build),
			Holdout: holdout,
			Tol:     resolved,
			Net:     net,
			Cost:    cost,
			CartCfg: cart.Config{FullRows: t.NumRows(), Prune: opts.Prune},
		}
		var plan *selector.Result
		switch opts.Selection {
		case SelectGreedy:
			plan, err = selector.Greedy(ctx, in, opts.Theta)
		case SelectWMISMarkov:
			plan, err = selector.MaxIndependentSet(ctx, in, selector.MarkovBlanket)
		default:
			plan, err = selector.MaxIndependentSet(ctx, in, selector.Parents)
		}
		if err != nil {
			return fmt.Errorf("spartan: CaRT selection: %w", err)
		}
		models := make([]*cart.Model, 0, len(plan.Predicted))
		for _, a := range plan.Predicted {
			models = append(models, plan.Models[a])
			m.learned.Predicted = append(m.learned.Predicted, t.Attr(a).Name)
		}
		for _, a := range plan.Materialized {
			m.learned.Materialized = append(m.learned.Materialized, t.Attr(a).Name)
		}
		if m.block, err = codec.NewModelBlock(t, plan.Materialized, models); err != nil {
			return fmt.Errorf("spartan: CaRT selection: %w", err)
		}
		for i, e := range resolved {
			m.block.Tolerances[i].Value = e.Bound()
		}
		m.plan = plan
		m.learned.CartsBuilt = plan.CartsBuilt
		sp.SetAttr("strategy", opts.Selection.String()).
			SetAttr("sample_rows", build.NumRows()).
			SetAttr("carts_built", plan.CartsBuilt).
			SetAttr("nodes_grown", plan.NodesGrown).
			SetAttr("predicted", len(plan.Predicted)).
			SetAttr("materialized", len(plan.Materialized))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Block returns the model block every body of this model decodes
// against.
func (m *Model) Block() *codec.ModelBlock { return m.block }

// Tolerances returns the absolute tolerances the model was learned
// under: every body it encodes reconstructs within them.
func (m *Model) Tolerances() table.Tolerances { return m.resolved }

// AddLearnStats adds the learn step's share of the statistics to st: the
// dependency-finder and CaRT-selection timings, CartsBuilt, Predicted
// and Materialized. Apply leaves these zero, so an archive adds them to
// its first segment and a sum over segments counts learning once.
func (m *Model) AddLearnStats(st *Stats) {
	st.Timings.DependencyFinder += m.learned.Timings.DependencyFinder
	st.Timings.CaRTSelection += m.learned.Timings.CaRTSelection
	st.CartsBuilt += m.learned.CartsBuilt
	st.Predicted = append(st.Predicted, m.learned.Predicted...)
	st.Materialized = append(st.Materialized, m.learned.Materialized...)
}

// Apply runs the apply step on t — row aggregation, the outlier scan
// and the encoder — and writes t's codec body to w (no container, no
// model block; see Block). t must have the learn input's schema, and its
// categorical codes must index the dictionaries the body is decoded
// with. The row_aggregation, outlier_scan and encode spans go under a
// SpanApply root on the learn options' Trace. The returned Stats cover
// the apply step only (see AddLearnStats).
func (m *Model) Apply(ctx context.Context, w io.Writer, t *table.Table) (_ *Stats, err error) {
	if t == nil || !slices.Equal(t.Schema(), m.block.Schema) {
		return nil, fmt.Errorf("spartan: body schema differs from the learned schema")
	}
	stats := &Stats{RawBytes: t.RawSizeBytes()}
	root := startRoot(m.opts, SpanApply, t)
	defer finishRoot(root, &err)

	// RowAggregator: fascicle-quantize the materialized projection without
	// crossing any CaRT split value.
	applied := t
	err = runPhase(ctx, root, SpanRowAggregation, &stats.Timings.RowAggregation, func(sp *obs.Span) error {
		var seedsTried, rowsScanned, pairLists int
		if !m.opts.DisableRowAggregation && len(m.plan.Materialized) > 0 {
			var clustering *fascicle.Clustering
			var err error
			applied, clustering, err = rowAggregate(ctx, t, m.plan, m.resolved)
			if err != nil {
				return fmt.Errorf("spartan: row aggregation: %w", err)
			}
			stats.Fascicles = len(clustering.Fascicles)
			seedsTried, rowsScanned, pairLists = clustering.SeedsTried(), clustering.RowsScanned(), clustering.PairLists()
		}
		sp.SetAttr("fascicles", stats.Fascicles)
		sp.SetAttr("seeds_tried", seedsTried)
		sp.SetAttr("rows_scanned", rowsScanned)
		sp.SetAttr("pair_lists", pairLists)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Outlier scan: one pass over the rows per model (paper §2.3:
	// "SPARTAN then uses the CaRTs built to compress the full data set in
	// one pass").
	trees := m.block.Models
	outliers := make([][]cart.Outlier, len(trees))
	err = runPhase(ctx, root, SpanOutlierScan, &stats.Timings.OutlierScan, func(sp *obs.Span) error {
		// One scan per predicted attribute, bounded to GOMAXPROCS workers
		// so a wide table cannot run hundreds of full-table scans at once.
		// Each scan checks ctx between row batches and only reads its
		// tree, which every segment shares.
		err := par.ForEach(ctx, len(trees), 0, func(ctx context.Context, i int) error {
			a := trees[i].Target
			var perClass map[int32]float64
			if t.Attr(a).Kind == table.Categorical {
				perClass = m.resolved[a].ClassBudgets(t.Col(a).Dict)
			}
			var err error
			outliers[i], err = trees[i].ComputeOutliers(ctx, applied, m.resolved[a].Value, perClass)
			return err
		})
		if err != nil {
			return fmt.Errorf("spartan: outlier scan: %w", err)
		}
		for _, o := range outliers {
			stats.Outliers += len(o)
		}
		sp.SetAttr("rows_scanned", t.NumRows()*len(trees)).
			SetAttr("outliers", stats.Outliers)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Encode.
	err = runPhase(ctx, root, SpanEncode, &stats.Timings.Encode, func(sp *obs.Span) error {
		bd, err := m.block.EncodeBody(w, applied, outliers)
		if err != nil {
			return fmt.Errorf("spartan: encoding: %w", err)
		}
		stats.HeaderBytes = bd.HeaderBytes
		stats.ModelBytes = bd.ModelBytes
		stats.TPrimeBytes = bd.TPrimeBytes
		stats.CompressedBytes = bd.Total()
		stats.Ratio = ratio(stats.CompressedBytes, stats.RawBytes)
		sp.SetAttr("bytes_written", stats.CompressedBytes).
			SetAttr("header_bytes", stats.HeaderBytes).
			SetAttr("model_bytes", stats.ModelBytes).
			SetAttr("tprime_bytes", stats.TPrimeBytes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// startRoot opens the root span of one pipeline run on opts.Trace, or on
// a private trace when the caller supplied none: tracing is
// unconditional because Timings is read off the spans, and a
// caller-supplied Trace additionally sees every span (plus whatever
// observer it registered via OnSpanEnd).
func startRoot(opts Options, name string, t *table.Table) *obs.Span {
	tr := opts.Trace
	if tr == nil {
		tr = obs.NewTrace(name)
	}
	return tr.Start(name).SetAttr("rows", t.NumRows()).SetAttr("cols", t.NumCols())
}

// runPhase runs one pipeline component inside a child span of root,
// refusing to start it at all when ctx is already done (the phase
// boundary checkpoint). The span's Finish is deferred so an error return
// (or a panic in fn) can never leak an open span, and the phase's
// wall-clock time lands in *timing even on failure — partial runs still
// account their cost. A phase killed by cancellation gets its span
// annotated cancelled=true.
func runPhase(ctx context.Context, root *obs.Span, name string, timing *time.Duration, fn func(sp *obs.Span) error) (err error) {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("spartan: %s: %w", name, cerr)
	}
	sp := root.StartChild(name)
	defer func() {
		if isCancellation(err) {
			sp.SetAttr("cancelled", true)
		}
		sp.Finish()
		*timing = sp.Duration()
	}()
	return fn(sp)
}

// ratio is compressed/raw, or zero for an input of no raw bytes.
func ratio(compressed, raw int) float64 {
	if raw == 0 {
		return 0
	}
	return float64(compressed) / float64(raw)
}

// finishRoot finishes the root span of a run, first marking it
// cancelled=true when the run died from cancellation, so every error
// return of Learn and Apply leaves a correctly-annotated trace.
func finishRoot(root *obs.Span, err *error) {
	if isCancellation(*err) {
		root.SetAttr("cancelled", true)
	}
	root.Finish()
}

// isCancellation reports whether err stems from a done context.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// estimateMaterBits prices each attribute's materialization by running
// the codec's own column encoder (dictionary/raw + deflate) over the
// sample column, so the selector's MaterCost reflects real T' bytes.
func estimateMaterBits(sample *table.Table) ([]float64, error) {
	out := make([]float64, sample.NumCols())
	for i := 0; i < sample.NumCols(); i++ {
		bits, err := codec.EstimateBitsPerValue(sample.Col(i))
		if err != nil {
			return nil, fmt.Errorf("estimating column %d bits: %w", i, err)
		}
		out[i] = bits
	}
	return out, nil
}

// splitSample partitions the sample into build (3/4) and holdout (1/4)
// subsets by row position. With fewer than 8 rows the whole sample builds
// and no holdout is used.
func splitSample(sample *table.Table) (build, holdout *table.Table, err error) {
	n := sample.NumRows()
	if n < 8 {
		return sample, nil, nil
	}
	var buildRows, holdRows []int
	for r := 0; r < n; r++ {
		if r%4 == 3 {
			holdRows = append(holdRows, r)
		} else {
			buildRows = append(buildRows, r)
		}
	}
	b, err := sample.SelectRows(buildRows)
	if err != nil {
		return nil, nil, fmt.Errorf("sample split: %w", err)
	}
	h, err := sample.SelectRows(holdRows)
	if err != nil {
		return nil, nil, fmt.Errorf("sample split: %w", err)
	}
	return b, h, nil
}

// rowAggregate runs the fascicle pass over the materialized projection and
// grafts the quantized columns into a full-width copy of t.
func rowAggregate(ctx context.Context, t *table.Table, plan *selector.Result, resolved table.Tolerances) (*table.Table, *fascicle.Clustering, error) {
	proj, err := t.Project(plan.Materialized)
	if err != nil {
		return nil, nil, err
	}
	widths := make([]float64, proj.NumCols())
	splits := make([][]float64, proj.NumCols())
	splitsByAttr := collectSplitValues(plan)
	for i, a := range plan.Materialized {
		if t.Attr(a).Kind == table.Numeric {
			widths[i] = resolved[a].Value
			splits[i] = splitsByAttr[a]
		}
	}
	clustering, err := fascicle.Cluster(ctx, proj, fascicle.Params{Widths: widths, SplitValues: splits})
	if err != nil {
		return nil, nil, err
	}
	quantized := clustering.Quantize(proj)

	cols := make([]*table.Column, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		cols[i] = t.Col(i)
	}
	for i, a := range plan.Materialized {
		cols[a] = quantized.Col(i)
	}
	merged, err := table.New(t.Schema(), cols)
	if err != nil {
		return nil, nil, err
	}
	return merged, clustering, nil
}

// collectSplitValues walks every selected model and gathers, per
// attribute, the numeric split thresholds whose straddling the
// RowAggregator must avoid (paper §3.4).
func collectSplitValues(plan *selector.Result) map[int][]float64 {
	out := map[int][]float64{}
	for _, m := range plan.Models {
		var walk func(n *cart.Node)
		walk = func(n *cart.Node) {
			if n == nil || n.Leaf {
				return
			}
			if !n.SplitIsCat {
				out[n.SplitAttr] = append(out[n.SplitAttr], n.SplitValue)
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(m.Root)
	}
	return out
}

// Decompress is codec.Decode. It stays because benchmark/workloads.go
// calls it.
func Decompress(r io.Reader) (*table.Table, error) {
	return codec.Decode(r)
}
