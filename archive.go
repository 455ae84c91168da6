package spartan

import (
	"context"
	"io"

	"repro/internal/archive"
	"repro/internal/codec"
)

// Segmented archives: tables far larger than memory compress in bounded
// space by splitting rows into segments. The CaRT models are learned
// once per archive and stored once; each segment applies them to its
// rows (concurrently, on a bounded worker pool). The archive's footer
// records per-segment byte extents, row counts and zone maps, so
// seekable readers decode segments on demand and queries skip segments
// their predicate provably excludes.

// ArchiveWriter appends segments to a stream, all compressed with the
// models learned from its first segment.
type ArchiveWriter = archive.Writer

// Archive reads an archive through its footer: segments decode on
// demand, and Query prunes segments via zone maps.
type Archive = archive.SegReader

// SegmentOptions shapes how CompressArchive splits rows into segments
// and schedules the parallel compression.
type SegmentOptions = archive.SegmentOptions

// ArchiveStats aggregates per-segment compression statistics.
type ArchiveStats = archive.TableStats

// ArchiveQueryStats reports how much decoding a query's zone-map
// pruning saved.
type ArchiveQueryStats = archive.QueryStats

// FramingError reports a segment whose body did not fill its declared
// frame length.
type FramingError = codec.FramingError

// ErrEmptyArchive is returned when reading a structurally valid archive
// that contains zero segments; test for it with errors.Is.
var ErrEmptyArchive = codec.ErrEmptyArchive

// ErrNotArchive is returned by Decompress, ReadArchive and OpenArchive
// for input that is not a SPARTAN archive; test for it with errors.Is.
var ErrNotArchive = codec.ErrNotArchive

// DefaultSegmentRows is the segment size used when SegmentOptions
// leaves SegmentRows zero.
const DefaultSegmentRows = archive.DefaultSegmentRows

// NewArchiveWriter starts an archive on w. The models are learned from
// the first block written, and quantile tolerances resolve against that
// block's value ranges, so prefer absolute tolerances when later blocks
// may range wider. Use CompressArchive to split and compress a whole
// table in parallel instead of framing segments by hand; it learns on
// the whole table.
func NewArchiveWriter(w io.Writer, opts Options) (*ArchiveWriter, error) {
	return archive.NewWriter(w, opts)
}

// ReadArchive reads r to the end and decompresses it into one table,
// rows in segment order. It is Decompress.
func ReadArchive(r io.Reader) (*Table, error) {
	return archive.ReadAll(r)
}

// CompressArchive learns the models on all of t, splits t into row
// segments and writes a segmented archive to w, applying the models to
// segments concurrently. Quantile tolerances resolve against all of t.
// The output bytes do not depend on the worker count.
func CompressArchive(w io.Writer, t *Table, opts Options, seg SegmentOptions) (*ArchiveStats, error) {
	return archive.WriteTable(w, t, opts, seg)
}

// CompressArchiveContext is CompressArchive with cancellation.
func CompressArchiveContext(ctx context.Context, w io.Writer, t *Table, opts Options, seg SegmentOptions) (*ArchiveStats, error) {
	return archive.WriteTableContext(ctx, w, t, opts, seg)
}

// OpenArchive parses the footer of a seekable archive for on-demand
// segment access and zone-map-pruned queries. Use a Segment(i) loop to
// read an archive with memory bounded by one segment.
func OpenArchive(r io.ReadSeeker) (*Archive, error) {
	return archive.OpenSegmented(r)
}

// QueryArchive runs q against an opened archive, decoding only the
// segments whose zone maps cannot refute the predicate. The result is
// identical to decompressing the whole archive and running the query
// over it.
func QueryArchive(a *Archive, tol Tolerances, q Query) (*QueryResult, *ArchiveQueryStats, error) {
	return a.Query(tol, q)
}
