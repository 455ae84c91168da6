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
// demand, Tolerances returns the tolerance vector it was written under,
// and Query prunes segments via zone maps.
type Archive = archive.SegReader

// SegmentOptions shapes how Compress splits rows into segments and
// schedules the parallel compression; the zero value writes one segment.
type SegmentOptions = archive.SegmentOptions

// ArchiveStats is the archive's Stats, totalled over its segments, plus
// each segment's own.
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

// ErrNotArchive is returned by Decompress and OpenArchive
// for input that is not a SPARTAN archive; test for it with errors.Is.
var ErrNotArchive = codec.ErrNotArchive

// ErrExceedsLimits is returned by Compress and ArchiveWriter.WriteBlock
// for a table whose archive the default reader would refuse: more than
// 2^16 attributes, or a dictionary over 2^24 entries. Test for it with
// errors.Is.
var ErrExceedsLimits = codec.ErrExceedsLimits

// ErrNotFloat32 is returned by Compress and ArchiveWriter.WriteBlock for
// a table holding a numeric value that float32, the archive's cell type,
// cannot hold exactly (a table built with NewBuilder rounds its input).
// Test for it with errors.Is.
var ErrNotFloat32 = codec.ErrNotFloat32

// NewArchiveWriter starts an archive on w. The models are learned from
// the first block written, and quantile tolerances resolve against that
// block's value ranges, so prefer absolute tolerances when later blocks
// may range wider. Use Compress to split and compress a whole table in
// parallel instead of framing segments by hand; it learns on the whole
// table.
func NewArchiveWriter(w io.Writer, opts Options) (*ArchiveWriter, error) {
	return archive.NewWriter(w, opts)
}

// Compress learns the models on all of t, splits t into row segments
// (one holding every row unless seg.SegmentRows bounds them) and writes
// the archive to w, applying the models to the segments concurrently.
// Quantile tolerances resolve against all of t, and the input table is
// not modified. The output bytes do not depend on the worker count. The
// pipeline checks ctx at every phase boundary and inside long-running
// phases, so a cancelled or expired context aborts the compression
// promptly with an error wrapping ctx.Err().
func Compress(ctx context.Context, w io.Writer, t *Table, opts Options, seg SegmentOptions) (*ArchiveStats, error) {
	return archive.WriteTableContext(ctx, w, t, opts, seg)
}

// Decompress reads r to the end and decompresses the archive into one
// table, rows in segment order.
func Decompress(r io.Reader) (*Table, error) {
	return codec.Decode(r)
}

// OpenArchive parses the footer of a seekable archive for on-demand
// segment access and zone-map-pruned queries. Use a Segment(i) loop to
// read an archive with memory bounded by one segment.
func OpenArchive(r io.ReadSeeker) (*Archive, error) {
	return archive.OpenSegmented(r)
}

// QueryArchive runs q against an opened archive, decoding only the
// segments whose zone maps cannot refute the predicate. The intervals
// come from the tolerances the archive records (a.Tolerances()), the
// bounds it was written under; the result is identical to decompressing
// the whole archive and running the query over it with that vector.
func QueryArchive(a *Archive, q Query) (*QueryResult, *ArchiveQueryStats, error) {
	return a.QuerySpan(context.Background(), nil, q)
}
