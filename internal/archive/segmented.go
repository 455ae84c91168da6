// Segment-parallel archive construction and zone-map pruned queries.
// WriteTable learns the archive's models once, on the whole table, then
// splits the table into row segments and applies the models to them on a
// bounded worker pool — each segment's row aggregation, outlier scan and
// encode are independent — and appends the frames strictly in segment
// order, so the output bytes are identical at any worker count.
// SegReader opens the footer and model block of a seekable archive
// through codec.Reader, and Query skips segments whose zone maps refute
// the predicate under the tolerances the model block records.
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

// SegmentOptions shapes how WriteTableContext splits and schedules work.
type SegmentOptions struct {
	// SegmentRows is the target rows per segment; zero writes one
	// segment holding every row. The final segment holds the remainder.
	// Segments share one model block, so their size does not change what
	// is learned; it trades pruning granularity and the per-segment cost
	// (framing, zone maps, one deflate frame per T' column and the
	// numeric value dictionaries of its T') against how many segments fit in memory
	// during parallel compression.
	SegmentRows int
	// Workers bounds how many segments compress concurrently; zero
	// selects GOMAXPROCS. The output bytes do not depend on it.
	Workers int
}

// TableStats is the archive's statistics, summed over its segments,
// plus each segment's own. The sum's HeaderBytes includes the container's
// framing, footer and trailer, so its byte split adds up to
// CompressedBytes. The learn step runs once per archive, and
// PerSegment[0] carries its share — the dependency-finder and
// CaRT-selection timings, CartsBuilt, Predicted, Materialized and the
// model block's bytes — so a sum over PerSegment counts learning exactly
// once.
type TableStats struct {
	core.Stats
	Segments   int
	Rows       int
	PerSegment []*core.Stats
}

// segResult is one compressed segment, ready to append.
type segResult struct {
	body  []byte
	rows  int
	zones []codec.ZoneMap
	stats *core.Stats
}

// WriteTable is WriteTableContext with a background context. It stays
// because benchmark/workloads.go calls it.
func WriteTable(w io.Writer, t *table.Table, opts core.Options, seg SegmentOptions) (*TableStats, error) {
	return WriteTableContext(context.Background(), w, t, opts, seg)
}

// WriteTableContext is the one writer of a whole table: it learns the
// archive's models on all of t, then splits t into row segments and
// applies the models to them concurrently (bounded by seg.Workers),
// writing frames in segment order and then the model block. A table with
// no rows gets one empty segment. Output bytes are deterministic:
// segments compress through the same compressSegment as WriteBlock
// calls, so any worker count — including 1 — produces identical
// archives, and one segment holding every row produces core.Compress's
// bytes. A whole-table learn sees every categorical value, so the model
// block needs no dictionary remap and is written as learned. The frames
// are held until every segment is done, then appended in order; they are
// a fraction of the table, which is already in memory. Cancelling ctx
// abandons in-flight segments and returns.
func WriteTableContext(ctx context.Context, w io.Writer, t *table.Table, opts core.Options, seg SegmentOptions) (*TableStats, error) {
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("archive: nil or empty table")
	}
	rows := t.NumRows()
	size := seg.SegmentRows
	if size <= 0 {
		size = max(rows, 1)
	}
	nseg := max((rows+size-1)/size, 1)

	m, err := core.Learn(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	results := make([]segResult, nseg)
	err = par.ForEach(ctx, nseg, seg.Workers, func(ctx context.Context, i int) error {
		var err error
		results[i], err = compressSegment(ctx, m, segmentRows(t, i, size))
		if err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	cw := codec.NewWriter(w)
	for _, res := range results {
		if err := cw.WriteSegment(res.body, res.rows, res.zones); err != nil {
			return nil, err
		}
	}
	block, err := cw.Close(m.Block())
	if err != nil {
		return nil, err
	}

	first := results[0].stats
	m.AddLearnStats(first)
	first.HeaderBytes += block.HeaderBytes
	first.ModelBytes += block.ModelBytes
	first.CompressedBytes += block.Total()
	first.Ratio = ratio(first.CompressedBytes, first.RawBytes)
	stats := &TableStats{Segments: nseg, Rows: rows}
	total := &stats.Stats
	m.AddLearnStats(total)
	for _, res := range results {
		st := res.stats
		stats.PerSegment = append(stats.PerSegment, st)
		total.ModelBytes += st.ModelBytes
		total.TPrimeBytes += st.TPrimeBytes
		total.Outliers += st.Outliers
		total.Timings.RowAggregation += st.Timings.RowAggregation
		total.Timings.OutlierScan += st.Timings.OutlierScan
		total.Timings.Encode += st.Timings.Encode
	}
	total.RawBytes = t.RawSizeBytes()
	total.CompressedBytes = int(cw.Size())
	total.HeaderBytes = total.CompressedBytes - total.ModelBytes - total.TPrimeBytes
	total.Ratio = ratio(total.CompressedBytes, total.RawBytes)
	return stats, nil
}

// ratio is compressed/raw, or zero for an input of no raw bytes.
func ratio(compressed, raw int) float64 {
	if raw == 0 {
		return 0
	}
	return float64(compressed) / float64(raw)
}

// segmentRows returns rows [idx·n, idx·n+n) of t as a view sharing t's
// storage (t itself when they are all of it). Applying a model only reads
// its body: row aggregation snaps copies of the lossy materialized
// columns, and the outlier scan, encoder and zone maps read the columns
// in place.
func segmentRows(t *table.Table, idx, n int) *table.Table {
	lo := idx * n
	return t.Slice(lo, min(lo+n, t.NumRows()))
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

// QueryStats reports how much decoding a query's zone-map pruning and
// column projection saved.
type QueryStats struct {
	Segments    int // segments in the archive
	Decoded     int // segments whose bodies were decompressed
	Pruned      int // segments skipped because their zones refuted Where
	RowsDecoded int
	RowsPruned  int
	Columns     int // attributes decoded per kept segment (see codec.Reader.Columns)
}

// Query runs q against the archive, decoding only segments whose zone
// maps cannot refute the WHERE predicate. The intervals come from the
// tolerance vector the model block records (Tolerances), and the query
// evaluates with the archive-wide row count and value bounds in scope,
// so the result — definite rows, uncertain rows and interval bounds —
// is identical to decoding every segment and querying the whole table
// under that vector. tol is ignored; it stays in the signature until the
// benchmark's callers drop it. It is QuerySpan with a background context
// and no parent span.
func (sr *SegReader) Query(_ table.Tolerances, q query.Query) (*query.Result, *QueryStats, error) {
	return sr.QuerySpan(context.Background(), nil, q)
}

// QuerySpan is Query with cancellation and with its stages timed as
// children of parent: "prune" for the zone-map checks, "decode" for the
// frame reads and the parallel segment decode, and "aggregate" for the
// evaluation over the kept segments, which are queried where they lie
// and never merged. A kept segment decodes only the attributes q reads
// and their predictors (codec.Reader.Columns), so the answer is the one a
// full decode gives; the decode span's "columns" attribute counts them.
// A nil parent records nothing. Once ctx is done no further segment
// starts decoding, and the query fails with ctx's error. After Close it
// fails with codec.ErrReaderClosed.
func (sr *SegReader) QuerySpan(ctx context.Context, parent *obs.Span, q query.Query) (*query.Result, *QueryStats, error) {
	if sr.NumSegments() == 0 {
		return nil, nil, codec.ErrEmptyArchive
	}
	tol := sr.Tolerances()

	pruneSpan := parent.StartChild("prune")
	kept, scope, stats := sr.prune(tol, q)
	pruneSpan.Finish()

	cols := sr.Columns(q.Columns())
	stats.Columns = len(codec.Project(sr.Schema(), cols))
	decodeSpan := parent.StartChild("decode").SetAttr("columns", stats.Columns)
	ts, err := sr.keptTables(ctx, kept, cols)
	decodeSpan.Finish()
	if err != nil {
		return nil, nil, err
	}

	aggSpan := parent.StartChild("aggregate")
	res, err := query.RunSegments(ts, codec.Project(tol, cols), q, scope)
	aggSpan.Finish()
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

// prune returns the segments whose zone maps cannot refute q.Where under
// the recorded tolerances tol, in archive order, and the archive-wide
// scope the query evaluates in: every row, and the union of the
// segments' zones as each numeric column's value bounds.
func (sr *SegReader) prune(tol table.Tolerances, q query.Query) ([]int, *query.Scope, *QueryStats) {
	schema := sr.Schema()
	colIdx := make(map[string]int, len(schema))
	tolMap := make(map[string]float64, len(schema))
	for i, a := range schema {
		colIdx[a.Name] = i
		tolMap[a.Name] = tol[i].Value
	}
	scope := &query.Scope{TotalRows: sr.TotalRows(), Ranges: make(map[string][2]float64)}
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
	return kept, scope, stats
}

// keptTables decodes the kept segments, projected onto cols. With none
// kept it is one empty table with the projected archive schema, so query
// validation and group synthesis still run.
func (sr *SegReader) keptTables(ctx context.Context, kept []int, cols []bool) ([]*table.Table, error) {
	tables, err := sr.ReadSegments(ctx, kept, cols) // fails after Close even when nothing is kept
	if err != nil || len(tables) > 0 {
		return tables, err
	}
	schema := codec.Project(sr.Schema(), cols)
	empty := make([]*table.Column, len(schema))
	for i, a := range schema {
		empty[i] = &table.Column{Kind: a.Kind}
	}
	t, err := table.New(schema, empty)
	if err != nil {
		return nil, err
	}
	return []*table.Table{t}, nil
}
