// Segment-parallel archive construction and zone-map pruned queries.
// WriteTable learns the archive's models once, on the whole table, then
// splits the table into row segments and applies the models to them on a
// bounded worker pool — each segment's row aggregation, outlier scan and
// encode are independent — and appends the frames strictly in segment
// order, so the output bytes are identical at any worker count.
// SegReader opens the footer and model block of a seekable archive
// through codec.Reader, and Query skips segments whose zone maps refute
// the predicate.
package archive

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/table"
)

// DefaultSegmentRows is the segment size used when SegmentOptions leaves
// SegmentRows zero. Segments share one model block, so their size does
// not change what is learned; it trades pruning granularity and the
// per-segment cost (framing, zone maps, a gzip stream and the numeric
// value dictionaries of its T') against how many segments fit in memory
// during parallel compression.
const DefaultSegmentRows = 64 << 10

// SegmentOptions shapes how WriteTable splits and schedules work.
type SegmentOptions struct {
	// SegmentRows is the target rows per segment; zero selects
	// DefaultSegmentRows. The final segment holds the remainder.
	SegmentRows int
	// Workers bounds how many segments compress concurrently; zero
	// selects GOMAXPROCS. The output bytes do not depend on it.
	Workers int
}

// TableStats aggregates per-segment compression statistics. The learn
// step runs once per archive, and PerSegment[0] carries its share — the
// dependency-finder and CaRT-selection timings, CartsBuilt, Predicted,
// Materialized and the model block's bytes — so a sum over PerSegment
// counts learning exactly once.
type TableStats struct {
	Segments        int
	Rows            int
	RawBytes        int
	CompressedBytes int     // total archive size incl. framing and footer
	Ratio           float64 // CompressedBytes / RawBytes
	Outliers        int
	PerSegment      []*core.Stats
}

// segResult is one compressed segment, ready to append.
type segResult struct {
	body  []byte
	rows  int
	zones []codec.ZoneMap
	stats *core.Stats
}

// WriteTable compresses t into a segmented archive on w. It is
// WriteTableContext with a background context.
func WriteTable(w io.Writer, t *table.Table, opts core.Options, seg SegmentOptions) (*TableStats, error) {
	return WriteTableContext(context.Background(), w, t, opts, seg)
}

// WriteTableContext learns the archive's models on all of t, then
// splits t into row segments and applies the models to them
// concurrently (bounded by seg.Workers), writing frames in segment
// order. Output bytes are deterministic: segments compress through the
// same compressSegment as WriteBlock calls, so any worker count —
// including 1 — produces identical archives, and one segment holding
// every row produces core.Compress's bytes. The frames are held until
// every segment is done, then appended in order; they are a fraction of
// the table, which is already in memory. Cancelling ctx abandons
// in-flight segments and returns.
func WriteTableContext(ctx context.Context, w io.Writer, t *table.Table, opts core.Options, seg SegmentOptions) (*TableStats, error) {
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("archive: nil or empty table")
	}
	rows := t.NumRows()
	if seg.SegmentRows <= 0 {
		seg.SegmentRows = DefaultSegmentRows
	}
	nseg := (rows + seg.SegmentRows - 1) / seg.SegmentRows

	aw, err := NewWriter(w, opts)
	if err != nil {
		return nil, err
	}
	if nseg == 0 {
		// A zero-row table yields a legal empty archive; readers report
		// codec.ErrEmptyArchive because no model was ever learned.
		if err := aw.Close(); err != nil {
			return nil, err
		}
		return &TableStats{CompressedBytes: int(aw.cw.Size())}, nil
	}
	m, err := core.Learn(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	aw.setModel(m)

	results := make([]segResult, nseg)
	err = par.ForEach(ctx, nseg, seg.Workers, func(ctx context.Context, i int) error {
		part, err := segmentRows(t, i, seg.SegmentRows)
		if err == nil {
			results[i], err = compressSegment(ctx, m, part)
		}
		if err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}

	stats := &TableStats{Segments: nseg, Rows: rows, RawBytes: t.RawSizeBytes()}
	for _, res := range results {
		if err := aw.cw.WriteSegment(res.body, res.rows, res.zones); err != nil {
			return nil, err
		}
		stats.Outliers += res.stats.Outliers
		stats.PerSegment = append(stats.PerSegment, res.stats)
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	first := stats.PerSegment[0]
	m.AddLearnStats(first)
	first.HeaderBytes += aw.block.HeaderBytes
	first.ModelBytes += aw.block.ModelBytes
	first.CompressedBytes += aw.block.Total()
	first.Ratio = float64(first.CompressedBytes) / float64(first.RawBytes)
	stats.CompressedBytes = int(aw.cw.Size())
	if stats.RawBytes > 0 {
		stats.Ratio = float64(stats.CompressedBytes) / float64(stats.RawBytes)
	}
	return stats, nil
}

// segmentRows returns rows [idx·n, idx·n+n) of t: t itself when they are
// all of its rows, else a copy. It only reads t, so segments slice
// concurrently over one shared table.
func segmentRows(t *table.Table, idx, n int) (*table.Table, error) {
	lo := idx * n
	hi := min(lo+n, t.NumRows())
	if lo == 0 && hi == t.NumRows() {
		return t, nil
	}
	sel := make([]int, hi-lo)
	for i := range sel {
		sel[i] = lo + i
	}
	return t.SelectRows(sel)
}

// compressSegment applies the archive's model to one segment, returning
// its codec body and zone maps. It is the one place segment bytes are
// made, for both WriteBlock and WriteTable, and it depends only on the
// model and the segment's rows, which keeps the output byte-identical at
// any worker count.
func compressSegment(ctx context.Context, m *core.Model, part *table.Table) (segResult, error) {
	var body bytes.Buffer
	stats, err := m.Apply(ctx, &body, part)
	if err != nil {
		return segResult{}, err
	}
	return segResult{body: body.Bytes(), rows: part.NumRows(), zones: codec.ComputeZones(part, m.Tolerances()), stats: stats}, nil
}

// SegReader is codec.Reader plus Query, which consults the footer's zone
// maps to skip segments a predicate refutes. Methods that touch the
// underlying stream share its seek position and must not be called
// concurrently.
type SegReader struct {
	*codec.Reader
}

// OpenSegmented parses the footer and decodes the model block of a
// seekable archive with default decode limits (see codec.Open). Input
// that does not start with the archive magic fails with
// codec.ErrNotArchive.
func OpenSegmented(r io.ReadSeeker) (*SegReader, error) {
	cr, err := codec.Open(r, codec.DecodeLimits{})
	if err != nil {
		return nil, err
	}
	return &SegReader{cr}, nil
}

// Close releases the reader and, when it is an io.Closer, the underlying
// stream. It is idempotent and nil-receiver-safe.
func (sr *SegReader) Close() error {
	if sr == nil {
		return nil
	}
	return sr.Reader.Close()
}

// QueryStats reports how much decoding a query's zone-map pruning saved.
type QueryStats struct {
	Segments    int // segments in the archive
	Decoded     int // segments whose bodies were decompressed
	Pruned      int // segments skipped because their zones refuted Where
	RowsDecoded int
	RowsPruned  int
}

// Query runs q against the archive, decoding only segments whose zone
// maps cannot refute the WHERE predicate. Tolerances (quantile forms
// included) resolve against archive-wide footer ranges, and the query
// evaluates with the archive-wide row count and value bounds in scope,
// so the result — definite rows, uncertain rows and interval bounds —
// is identical to decoding every segment and querying the whole table.
// It is QuerySpan with a background context and no parent span.
func (sr *SegReader) Query(tol table.Tolerances, q query.Query) (*query.Result, *QueryStats, error) {
	return sr.QuerySpan(context.Background(), nil, tol, q)
}

// QuerySpan is Query with cancellation and with its stages timed as
// children of parent: "prune" for the zone-map checks, "decode" for the
// frame reads and the parallel segment decode, and "aggregate" for the
// evaluation over the kept segments, which are queried where they lie
// and never merged. A nil parent records nothing. Once ctx is done no
// further segment starts decoding, and the query fails with ctx's error.
// After Close it fails with codec.ErrReaderClosed.
func (sr *SegReader) QuerySpan(ctx context.Context, parent *obs.Span, tol table.Tolerances, q query.Query) (*query.Result, *QueryStats, error) {
	if sr.NumSegments() == 0 {
		return nil, nil, codec.ErrEmptyArchive
	}
	schema := sr.Schema()
	if tol == nil {
		tol = make(table.Tolerances, len(schema))
	}

	pruneSpan := parent.StartChild("prune")
	kept, scope, stats, err := sr.prune(tol, q)
	pruneSpan.Finish()
	if err != nil {
		return nil, nil, err
	}

	decodeSpan := parent.StartChild("decode")
	ts, err := sr.keptTables(ctx, kept)
	decodeSpan.Finish()
	if err != nil {
		return nil, nil, err
	}

	aggSpan := parent.StartChild("aggregate")
	res, err := query.RunSegments(ts, tol, q, scope)
	aggSpan.Finish()
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

// prune returns the segments whose zone maps cannot refute q.Where, in
// archive order, and the archive-wide scope the query evaluates in.
func (sr *SegReader) prune(tol table.Tolerances, q query.Query) ([]int, *query.Scope, *QueryStats, error) {
	schema := sr.Schema()
	colIdx := make(map[string]int, len(schema))
	for i, a := range schema {
		colIdx[a.Name] = i
	}
	// Archive-wide value bounds: the union of the (tolerance-widened)
	// segment zones. Resolving quantile tolerances against these instead
	// of a pruned subset's narrower ranges keeps the error bounds the
	// full-decode path would use.
	scope := &query.Scope{TotalRows: sr.TotalRows(), Ranges: make(map[string][2]float64)}
	ranges := make([]float64, len(schema))
	for i, a := range schema {
		if a.Kind != table.Numeric {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := 0; s < sr.NumSegments(); s++ {
			lo = math.Min(lo, sr.Info(s).Zones[i].Min)
			hi = math.Max(hi, sr.Info(s).Zones[i].Max)
		}
		scope.Ranges[a.Name] = [2]float64{lo, hi}
		ranges[i] = hi - lo
	}
	resolved, err := tol.ResolveRanges(schema, ranges)
	if err != nil {
		return nil, nil, nil, err
	}
	tolMap := make(map[string]float64, len(schema))
	for i, a := range schema {
		tolMap[a.Name] = resolved[i].Value
	}

	stats := &QueryStats{Segments: sr.NumSegments()}
	var kept []int
	for i := 0; i < sr.NumSegments(); i++ {
		seg := sr.Info(i)
		zones := func(column string) (query.ColumnZone, bool) {
			c, ok := colIdx[column]
			if !ok {
				return query.ColumnZone{}, false
			}
			z := seg.Zones[c]
			if schema[c].Kind == table.Numeric {
				return query.ColumnZone{Kind: table.Numeric, Lo: z.Min, Hi: z.Max}, true
			}
			return query.ColumnZone{Kind: table.Categorical, MayContain: z.MayContain}, true
		}
		if query.CanMatch(q.Where, zones, tolMap) {
			kept = append(kept, i)
			stats.Decoded++
			stats.RowsDecoded += seg.Rows
		} else {
			stats.Pruned++
			stats.RowsPruned += seg.Rows
		}
	}
	return kept, scope, stats, nil
}

// keptTables decodes the kept segments. With none kept it is one empty
// table with the archive schema, so query validation and group
// synthesis still run.
func (sr *SegReader) keptTables(ctx context.Context, kept []int) ([]*table.Table, error) {
	tables, err := sr.ReadSegments(ctx, kept) // fails after Close even when nothing is kept
	if err != nil || len(tables) > 0 {
		return tables, err
	}
	schema := sr.Schema()
	cols := make([]*table.Column, len(schema))
	for i, a := range schema {
		cols[i] = &table.Column{Kind: a.Kind}
	}
	t, err := table.New(schema, cols)
	if err != nil {
		return nil, err
	}
	return []*table.Table{t}, nil
}
