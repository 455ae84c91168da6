// Segment-parallel archive construction and footer-driven reading.
// WriteTable learns the archive's models once, on the whole table, then
// splits the table into row segments and applies the models to them on a
// bounded worker pool — each segment's row aggregation, outlier scan and
// encode are independent — and appends the frames strictly in segment
// order, so the output bytes are identical at any worker count.
// SegReader opens the footer and model block of a seekable archive and
// decodes segment bodies on demand, letting Query skip segments whose
// zone maps refute the predicate.
package archive

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	frame []byte
	rows  int
	zones []ZoneMap
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
// including 1 — produces identical archives. The frames are held until
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
		// ErrEmptyArchive because no model was ever learned.
		if err := aw.Close(); err != nil {
			return nil, err
		}
		return &TableStats{CompressedBytes: int(aw.total)}, nil
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
		if err := aw.appendFrame(res.frame, res.rows, res.zones); err != nil {
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
	stats.CompressedBytes = int(aw.total)
	if stats.RawBytes > 0 {
		stats.Ratio = float64(stats.CompressedBytes) / float64(stats.RawBytes)
	}
	return stats, nil
}

// segmentRows returns rows [idx·n, idx·n+n) of t. It only reads t, so
// segments slice concurrently over one shared table.
func segmentRows(t *table.Table, idx, n int) (*table.Table, error) {
	lo := idx * n
	hi := min(lo+n, t.NumRows())
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
	var frame countBuffer
	stats, err := m.Apply(ctx, &frame, part)
	if err != nil {
		return segResult{}, err
	}
	return segResult{frame: frame.data, rows: part.NumRows(), zones: computeZones(part, m.Tolerances()), stats: stats}, nil
}

// SegReader reads an archive through its footer: segments decode on
// demand by index, and Query consults zone maps to skip segments a
// predicate refutes. Methods that touch the underlying stream share its
// seek position and must not be called concurrently.
type SegReader struct {
	r      io.ReadSeeker
	lim    codec.DecodeLimits
	model  *codec.ModelBlock // nil for an empty archive
	schema table.Schema
	segs   []SegmentInfo
	size   int64
	rows   int
	closed bool
}

// ErrReaderClosed is returned by segment reads attempted after Close.
var ErrReaderClosed = errors.New("archive: reader is closed")

// Close releases the reader. When the underlying stream is itself an
// io.Closer — an *os.File, a network body — it is closed too; an
// in-memory reader just drops the reference. Close is idempotent and
// nil-receiver-safe: second and later calls, and calls on a nil
// reader, return nil. Reads after Close fail with ErrReaderClosed.
func (sr *SegReader) Close() error {
	if sr == nil || sr.closed {
		return nil
	}
	sr.closed = true
	r := sr.r
	sr.r = nil
	if c, ok := r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// OpenSegmented parses the footer of a seekable archive with default
// decode limits. Input that does not start with the archive magic fails
// with ErrNotArchive.
func OpenSegmented(r io.ReadSeeker) (*SegReader, error) {
	return OpenSegmentedLimited(r, codec.DecodeLimits{})
}

// OpenSegmentedLimited is OpenSegmented with explicit decode limits,
// applied to the footer parse, the model block and every segment decode.
// The model block is decoded here, once for all segments.
func OpenSegmentedLimited(r io.ReadSeeker, lim codec.DecodeLimits) (*SegReader, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	got := make([]byte, len(magic))
	n, err := io.ReadFull(r, got)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("archive: reading magic: %w", err)
	}
	if string(got[:n]) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrNotArchive, got[:n])
	}
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	// Smallest legal archive: magic, terminator byte, footer, trailer.
	if size < int64(len(magic))+1+int64(trailerSize) {
		return nil, fmt.Errorf("archive: %d bytes is too short for an archive", size)
	}
	if _, err := r.Seek(size-int64(trailerSize), io.SeekStart); err != nil {
		return nil, err
	}
	var tr [trailerSize]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return nil, fmt.Errorf("archive: reading trailer: %w", err)
	}
	if string(tr[8:]) != endMagic {
		return nil, fmt.Errorf("archive: bad end magic %q (truncated archive)", tr[8:])
	}
	wantCRC := binary.LittleEndian.Uint32(tr[0:4])
	footLen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	if footLen > maxFooterBytes || footLen > size-int64(trailerSize)-int64(len(magic))-1 {
		return nil, fmt.Errorf("archive: trailer claims %d-byte footer in %d-byte archive", footLen, size)
	}
	if _, err := r.Seek(size-int64(trailerSize)-footLen, io.SeekStart); err != nil {
		return nil, err
	}
	foot, err := readFrameBytes(r, uint64(footLen))
	if err != nil {
		return nil, fmt.Errorf("archive: reading footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(foot); got != wantCRC {
		return nil, fmt.Errorf("archive: footer checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	fbr := bufio.NewReader(bytes.NewReader(foot))
	blockExt, err := readExtent(fbr, size, "model block")
	if err != nil {
		return nil, err
	}
	sr := &SegReader{r: r, lim: lim, size: size}
	if blockExt.Length > 0 {
		if _, err := r.Seek(blockExt.Offset, io.SeekStart); err != nil {
			return nil, err
		}
		block, err := readFrameBytes(r, uint64(blockExt.Length))
		if err != nil {
			return nil, fmt.Errorf("archive: reading model block: %w", err)
		}
		if sr.model, err = codec.DecodeModelBlock(block, lim); err != nil {
			return nil, fmt.Errorf("archive: decoding model block: %w", err)
		}
		sr.schema = sr.model.Schema
	}
	if sr.segs, err = readSegments(fbr, size, sr.schema, lim); err != nil {
		return nil, err
	}
	for _, seg := range sr.segs {
		if seg.Rows > math.MaxInt-sr.rows {
			return nil, fmt.Errorf("archive: footer row counts overflow")
		}
		sr.rows += seg.Rows
	}
	return sr, nil
}

// Schema returns the archive schema (nil for an empty archive).
func (sr *SegReader) Schema() table.Schema { return sr.schema }

// NumSegments returns how many segments the footer records.
func (sr *SegReader) NumSegments() int { return len(sr.segs) }

// Info returns the footer entry for segment i.
func (sr *SegReader) Info(i int) SegmentInfo { return sr.segs[i] }

// TotalRows returns the archive-wide row count from the footer.
func (sr *SegReader) TotalRows() int { return sr.rows }

// decode reads the frames of segments idx, then decodes them
// concurrently and in order. Every segment read goes through here. The
// fan-out is bounded at GOMAXPROCS: each decode holds a whole
// decompressed segment, so one goroutine per frame on a
// thousand-segment archive would hold the entire table at once. No
// segment starts decoding once ctx is done.
func (sr *SegReader) decode(ctx context.Context, idx []int) ([]*table.Table, error) {
	if sr.closed {
		return nil, ErrReaderClosed
	}
	frames := make([][]byte, len(idx))
	for k, i := range idx {
		seg := sr.segs[i]
		if _, err := sr.r.Seek(seg.Offset, io.SeekStart); err != nil {
			return nil, err
		}
		var err error
		if frames[k], err = readFrameBytes(sr.r, uint64(seg.Length)); err != nil {
			return nil, fmt.Errorf("archive: reading segment %d: %w", i, err)
		}
	}
	tables := make([]*table.Table, len(idx))
	err := par.ForEach(ctx, len(idx), 0, func(_ context.Context, k int) error {
		var err error
		tables[k], err = sr.decodeSegment(idx[k], frames[k])
		return err
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// decodeSegment decodes segment i's frame against the archive's model
// block and checks it against the footer: the codec body must fill the
// frame exactly (a shorter body means trailing garbage inside the frame)
// and yield the recorded rows.
func (sr *SegReader) decodeSegment(i int, frame []byte) (*table.Table, error) {
	t, consumed, err := sr.model.DecodeBody(bytes.NewReader(frame), sr.lim)
	if err != nil {
		return nil, fmt.Errorf("archive: decoding segment %d: %w", i, err)
	}
	if consumed < int64(len(frame)) {
		return nil, &FramingError{Segment: i, Declared: int64(len(frame)), Consumed: consumed}
	}
	if t.NumRows() != sr.segs[i].Rows {
		return nil, fmt.Errorf("archive: segment %d decoded %d rows, footer records %d", i, t.NumRows(), sr.segs[i].Rows)
	}
	return t, nil
}

// Segment decodes segment i, verifying its frame against the footer.
func (sr *SegReader) Segment(i int) (*table.Table, error) {
	tables, err := sr.decode(context.Background(), []int{i})
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// ReadAll decodes every segment (concurrently, bounded at GOMAXPROCS)
// and concatenates the rows. An empty archive returns ErrEmptyArchive.
func (sr *SegReader) ReadAll() (*table.Table, error) {
	idx := make([]int, len(sr.segs))
	for i := range idx {
		idx[i] = i
	}
	tables, err := sr.decode(context.Background(), idx)
	if err != nil {
		return nil, err
	}
	return mergeTables(tables)
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
// frame reads, the parallel segment decode and the merge, and
// "aggregate" for the evaluation. A nil parent records nothing. Once ctx
// is done no further segment starts decoding, and the query fails with
// ctx's error.
func (sr *SegReader) QuerySpan(ctx context.Context, parent *obs.Span, tol table.Tolerances, q query.Query) (*query.Result, *QueryStats, error) {
	if sr.closed {
		return nil, nil, ErrReaderClosed
	}
	if len(sr.segs) == 0 {
		return nil, nil, ErrEmptyArchive
	}
	if tol == nil {
		tol = make(table.Tolerances, len(sr.schema))
	}

	pruneSpan := parent.StartChild("prune")
	kept, scope, stats, err := sr.prune(tol, q)
	pruneSpan.Finish()
	if err != nil {
		return nil, nil, err
	}

	decodeSpan := parent.StartChild("decode")
	t, err := sr.keptTable(ctx, kept)
	decodeSpan.Finish()
	if err != nil {
		return nil, nil, err
	}

	aggSpan := parent.StartChild("aggregate")
	res, err := query.RunScoped(t, tol, q, scope)
	aggSpan.Finish()
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

// prune returns the segments whose zone maps cannot refute q.Where, in
// archive order, and the archive-wide scope the query evaluates in.
func (sr *SegReader) prune(tol table.Tolerances, q query.Query) ([]int, *query.Scope, *QueryStats, error) {
	colIdx := make(map[string]int, len(sr.schema))
	for i, a := range sr.schema {
		colIdx[a.Name] = i
	}
	// Archive-wide value bounds: the union of the (tolerance-widened)
	// segment zones. Resolving quantile tolerances against these instead
	// of a pruned subset's narrower ranges keeps the error bounds the
	// full-decode path would use.
	scope := &query.Scope{TotalRows: sr.rows, Ranges: make(map[string][2]float64)}
	ranges := make([]float64, len(sr.schema))
	for i, a := range sr.schema {
		if a.Kind != table.Numeric {
			continue
		}
		lo, hi := sr.segs[0].Zones[i].Min, sr.segs[0].Zones[i].Max
		for _, seg := range sr.segs[1:] {
			lo = math.Min(lo, seg.Zones[i].Min)
			hi = math.Max(hi, seg.Zones[i].Max)
		}
		scope.Ranges[a.Name] = [2]float64{lo, hi}
		ranges[i] = hi - lo
	}
	resolved, err := tol.ResolveRanges(sr.schema, ranges)
	if err != nil {
		return nil, nil, nil, err
	}
	tolMap := make(map[string]float64, len(sr.schema))
	for i, a := range sr.schema {
		tolMap[a.Name] = resolved[i].Value
	}

	stats := &QueryStats{Segments: len(sr.segs)}
	var kept []int
	for i, seg := range sr.segs {
		zones := func(column string) (query.ColumnZone, bool) {
			c, ok := colIdx[column]
			if !ok {
				return query.ColumnZone{}, false
			}
			z := seg.Zones[c]
			if sr.schema[c].Kind == table.Numeric {
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

// keptTable decodes and merges the kept segments. With none kept it is
// an empty table with the footer schema, so query validation and group
// synthesis still run.
func (sr *SegReader) keptTable(ctx context.Context, kept []int) (*table.Table, error) {
	if len(kept) == 0 {
		cols := make([]*table.Column, len(sr.schema))
		for i, a := range sr.schema {
			cols[i] = &table.Column{Kind: a.Kind}
		}
		return table.New(sr.schema, cols)
	}
	tables, err := sr.decode(ctx, kept)
	if err != nil {
		return nil, err
	}
	return mergeTables(tables)
}
