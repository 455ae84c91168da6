// Package spartan is a model-based semantic compression system for
// relational data tables, reproducing "SPARTAN: A Model-Based Semantic
// Compression System for Massive Data Tables" (Babu, Garofalakis, Rastogi;
// SIGMOD 2001).
//
// Given a table and per-attribute error tolerances, SPARTAN selects a
// subset of attributes to *predict* with compact Classification and
// Regression Tree (CaRT) models instead of storing them, materializes the
// rest, and guarantees that decompressed values never deviate from the
// originals by more than the tolerances: numeric attributes by absolute
// difference, categorical attributes by probability of mismatch. With all
// tolerances zero the compression is lossless.
//
// The pipeline has four components (paper §2.3):
//
//   - DependencyFinder: learns a Bayesian network over the attributes from
//     a small random sample, restricting the CaRT search space;
//   - CaRTSelector: picks the predicted set via Greedy or iterated
//     Weighted-Maximum-Independent-Set search;
//   - CaRTBuilder: grows guaranteed-error trees with integrated pruning;
//   - RowAggregator: fascicle-clusters the materialized projection without
//     disturbing any CaRT path.
//
// Compress writes an archive; Decompress reads one back:
//
//	var buf bytes.Buffer
//	stats, err := spartan.Compress(ctx, &buf, tbl, spartan.Options{
//	    Tolerances: spartan.UniformTolerances(tbl, 0.01, 0),
//	}, spartan.SegmentOptions{})
//	...
//	restored, err := spartan.Decompress(&buf)
//
// The zero SegmentOptions writes one segment holding every row; a
// SegmentRows bound splits the rows into segments that queries can skip.
package spartan

import (
	"io"

	"repro/internal/cart"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/table"
)

// Re-exported table types: the table package is the data substrate users
// build inputs with.
type (
	// Table is an immutable, columnar, typed data table.
	Table = table.Table
	// Schema is an ordered list of attributes.
	Schema = table.Schema
	// Attribute describes one column (name + kind).
	Attribute = table.Attribute
	// Kind distinguishes numeric from categorical attributes.
	Kind = table.Kind
	// Builder constructs a Table row by row.
	Builder = table.Builder
	// Tolerance is a per-attribute error bound.
	Tolerance = table.Tolerance
	// Tolerances is the per-attribute error-tolerance vector ē.
	Tolerances = table.Tolerances
)

// Attribute kinds.
const (
	Numeric     = table.Numeric
	Categorical = table.Categorical
)

// Pipeline types from the core package.
type (
	// Options configures compression; the zero value is lossless with the
	// paper's default knobs.
	Options = core.Options
	// Stats describes one compression run.
	Stats = core.Stats
	// Timings records per-component wall-clock time.
	Timings = core.Timings
	// SelectionStrategy picks the CaRTSelector algorithm.
	SelectionStrategy = core.SelectionStrategy
	// PruneMode selects the CaRT pruning strategy.
	PruneMode = cart.PruneMode
	// Trace collects the pipeline spans of one compression run; pass one
	// via Options.Trace to observe per-component timing (paper §4.2).
	Trace = obs.Trace
	// Span is one timed, annotated pipeline section within a Trace.
	Span = obs.Span
)

// Span names emitted by Compress: one SpanLearn root (dependency finder,
// CaRT selection) and one SpanApply root per segment (row aggregation,
// outlier scan, encode).
const (
	SpanLearn            = core.SpanLearn
	SpanApply            = core.SpanApply
	SpanDependencyFinder = core.SpanDependencyFinder
	SpanCaRTSelection    = core.SpanCaRTSelection
	SpanRowAggregation   = core.SpanRowAggregation
	SpanOutlierScan      = core.SpanOutlierScan
	SpanEncode           = core.SpanEncode
)

// PhaseSpans lists the per-component span names in pipeline order.
var PhaseSpans = core.PhaseSpans

// NewTrace returns an empty pipeline trace for Options.Trace.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// CaRT-selection strategies (paper §3.2, Table 1).
const (
	SelectWMISParents = core.SelectWMISParents
	SelectWMISMarkov  = core.SelectWMISMarkov
	SelectGreedy      = core.SelectGreedy
)

// CaRT pruning modes (paper §3.3).
const (
	// PruneIntegrated interleaves cost-based pruning with tree growth
	// (SPARTAN's default).
	PruneIntegrated = cart.PruneIntegrated
	// PruneAfter grows fully, then prunes (the conventional baseline).
	PruneAfter = cart.PruneAfter
)

// NewBuilder returns a row-by-row table builder for the schema.
func NewBuilder(schema Schema) (*Builder, error) { return table.NewBuilder(schema) }

// ReadCSV parses a table from CSV (schema inferred when nil).
func ReadCSV(r io.Reader, schema Schema) (*Table, error) { return table.ReadCSV(r, schema) }

// WriteCSV writes a table as CSV.
func WriteCSV(w io.Writer, t *Table) error { return table.WriteCSV(w, t) }

// ReadBinary parses a table from the raw fixed-record binary format.
func ReadBinary(r io.Reader) (*Table, error) { return table.ReadBinary(r) }

// WriteBinary writes a table in the raw fixed-record binary format whose
// size defines the compression-ratio denominator.
func WriteBinary(w io.Writer, t *Table) error { return table.WriteBinary(w, t) }

// UniformTolerances builds the paper's standard tolerance vector: every
// numeric attribute tolerates numericFrac of its value range, every
// categorical attribute tolerates mismatch probability catProb.
func UniformTolerances(t *Table, numericFrac, catProb float64) Tolerances {
	return table.UniformTolerances(t, numericFrac, catProb)
}
