// Package archive provides a segmented ("row-group") container for
// SPARTAN streams, so tables far larger than memory compress in bounded
// space and decode with seek-and-prune access: rows arrive in segments,
// each segment is independently semantically compressed (its own sample,
// models and outliers), and the archive ends in a footer of per-segment
// metadata — byte offset, length, row count and per-column zone maps —
// that lets readers skip segments a predicate provably excludes without
// touching their bodies.
//
// Format ("SPARC2\n"): magic, then for each segment a uvarint byte
// length followed by a standard codec stream; a zero length terminates
// the segment region; then the footer and a fixed-size trailer (see
// docs/FORMAT.md). SegReader is the only decoder, so every read path
// checks the trailer, the footer checksum and each segment's row count
// against its footer entry. This package is the only one that knows the
// container magic: OpenSegmented refuses anything else with ErrNotArchive,
// and ReadAll falls back to decoding a bare codec stream. All segments
// must share one schema (attribute names and kinds); categorical
// dictionaries may differ per segment, and a multi-segment read unions
// them in segment order. A read that keeps one segment returns it as
// decoded.
package archive

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/table"
)

const magic = "SPARC2\n"

// maxArchiveBytes caps every wire-declared byte extent (1 TiB): an
// offset or length past it is a lie, and bounding the values up front
// keeps later arithmetic on them overflow-free.
const maxArchiveBytes = 1 << 40

// ErrEmptyArchive is returned when reading a structurally valid archive
// that contains zero segments. Writing one is legal (NewWriter + Close,
// or WriteTable on a zero-row table), but no schema was ever recorded,
// so no table can be reconstructed; callers that accept empty archives
// must test for this error with errors.Is.
var ErrEmptyArchive = errors.New("archive: empty archive (no segments)")

// ErrNotArchive is returned by OpenSegmented for input that does not
// start with the archive magic; test for it with errors.Is.
var ErrNotArchive = errors.New("archive: not a segmented archive")

// FramingError reports a segment whose codec stream did not fill its
// declared frame length. The frame then holds bytes no decoder reads, so
// the mismatch is fatal rather than skippable.
type FramingError struct {
	Segment  int   // zero-based segment index
	Declared int64 // frame length from the uvarint prefix
	Consumed int64 // bytes the codec stream actually occupied
}

func (e *FramingError) Error() string {
	return fmt.Sprintf("archive: segment %d: codec stream ends after %d of %d declared bytes",
		e.Segment, e.Consumed, e.Declared)
}

// Writer appends independently compressed segments to an archive
// stream, accumulating the footer's per-segment metadata as it goes.
//
// The first write error latches: a frame torn mid-write leaves the
// stream structurally corrupt, so every later WriteBlock and Close
// refuses with the original error instead of appending to garbage.
type Writer struct {
	w      *bufio.Writer
	opts   core.Options
	schema table.Schema
	segs   []SegmentInfo
	off    int64 // stream offset where the next frame's prefix lands
	blocks int
	total  int64 // final archive size, set by Close
	err    error // first write error; sticky
	closed bool
}

// NewWriter starts an archive on w. The options apply to every segment;
// quantile-form tolerances are resolved per segment against that
// segment's value ranges, so prefer absolute tolerances for
// cross-segment consistency.
func NewWriter(w io.Writer, opts core.Options) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, opts: opts, off: int64(len(magic))}, nil
}

// WriteBlock compresses one segment of rows. Every segment must carry
// the same schema.
func (aw *Writer) WriteBlock(t *table.Table) (*core.Stats, error) {
	if aw.err != nil {
		return nil, aw.err
	}
	if aw.closed {
		return nil, fmt.Errorf("archive: writer is closed")
	}
	if err := aw.noteSchema(t.Schema()); err != nil {
		return nil, err
	}
	res := compressSegment(context.Background(), t, aw.blocks, aw.opts)
	if res.err != nil {
		return nil, res.err // nothing reached the stream; the writer stays usable
	}
	if err := aw.appendFrame(res.frame, res.rows, res.zones); err != nil {
		return nil, err
	}
	return res.stats, nil
}

// noteSchema records the archive schema from the first segment and
// rejects drift on later ones.
func (aw *Writer) noteSchema(s table.Schema) error {
	if aw.schema == nil {
		aw.schema = s.Clone()
		return nil
	}
	return sameSchema(aw.schema, s)
}

// appendFrame writes one length-prefixed frame and records its footer
// entry. Any write failure latches into aw.err: the length prefix may
// already be on the wire, so the stream is unrecoverable.
func (aw *Writer) appendFrame(frame []byte, rows int, zones []ZoneMap) error {
	if aw.err != nil {
		return aw.err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(frame)))
	if _, err := aw.w.Write(lenBuf[:n]); err != nil {
		aw.err = fmt.Errorf("archive: writing frame prefix: %w", err)
		return aw.err
	}
	if _, err := aw.w.Write(frame); err != nil {
		aw.err = fmt.Errorf("archive: writing frame: %w", err)
		return aw.err
	}
	aw.segs = append(aw.segs, SegmentInfo{
		Offset: aw.off + int64(n),
		Length: int64(len(frame)),
		Rows:   rows,
		Zones:  zones,
	})
	aw.off += int64(n) + int64(len(frame))
	aw.blocks++
	return nil
}

// Blocks returns how many segments have been written.
func (aw *Writer) Blocks() int { return aw.blocks }

// Close writes the terminator, footer and trailer, then flushes. The
// writer cannot be reused. After a latched write error Close performs no
// further writes and surfaces that error instead.
func (aw *Writer) Close() error {
	if aw.closed {
		return aw.err
	}
	aw.closed = true
	if aw.err != nil {
		return aw.err
	}
	if err := aw.w.WriteByte(0); err != nil { // uvarint(0) terminator
		aw.err = err
		return err
	}
	// Serialize the footer to memory first: the trailer needs its CRC and
	// length, and a footer encoding error must not leave a partial footer
	// on the wire.
	var fbuf bytes.Buffer
	fbw := bufio.NewWriter(&fbuf)
	if err := writeFooter(fbw, aw.schema, aw.segs); err != nil {
		aw.err = err
		return err
	}
	if err := fbw.Flush(); err != nil {
		aw.err = err
		return err
	}
	foot := fbuf.Bytes()
	trailer, err := makeTrailer(foot)
	if err != nil {
		aw.err = err
		return err
	}
	if _, err := aw.w.Write(foot); err != nil {
		aw.err = err
		return err
	}
	if _, err := aw.w.Write(trailer[:]); err != nil {
		aw.err = err
		return err
	}
	if err := aw.w.Flush(); err != nil {
		aw.err = err
		return err
	}
	aw.total = aw.off + 1 + int64(len(foot)) + int64(len(trailer))
	return nil
}

type countBuffer struct{ data []byte }

func (b *countBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func sameSchema(a, b table.Schema) error {
	if len(a) != len(b) {
		return fmt.Errorf("archive: segment has %d attributes, archive has %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("archive: segment attribute %d is %v, archive has %v", i, b[i], a[i])
		}
	}
	return nil
}

// readFrameBytes reads exactly n frame bytes, growing the buffer in
// bounded chunks so a lying length prefix cannot force a huge upfront
// allocation: a truncated stream fails after at most one chunk of slack.
func readFrameBytes(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	if n > maxArchiveBytes {
		return nil, fmt.Errorf("implausible segment length %d", n)
	}
	dst := make([]byte, 0, min(int(n), chunk))
	for uint64(len(dst)) < n {
		want := n - uint64(len(dst))
		if want > chunk {
			want = chunk
		}
		start := len(dst)
		dst = append(dst, make([]byte, want)...)
		if _, err := io.ReadFull(r, dst[start:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// mergeTables concatenates equal-schema tables column by column, in
// order. Numeric columns append; a categorical column's dictionary is the
// union of the segment dictionaries in segment order, and each segment's
// codes remap through one translation of its dictionary. One table is
// returned as decoded.
func mergeTables(tables []*table.Table) (*table.Table, error) {
	if len(tables) == 0 {
		return nil, ErrEmptyArchive
	}
	schema := tables[0].Schema()
	rows := 0
	for _, t := range tables {
		if err := sameSchema(schema, t.Schema()); err != nil {
			return nil, err
		}
		rows += t.NumRows()
	}
	if len(tables) == 1 {
		return tables[0], nil
	}
	cols := make([]*table.Column, len(schema))
	for c, a := range schema {
		col := &table.Column{Kind: a.Kind}
		if a.Kind == table.Numeric {
			col.Floats = make([]float64, 0, rows)
			for _, t := range tables {
				col.Floats = append(col.Floats, t.Col(c).Floats...)
			}
		} else {
			col.Codes = make([]int32, 0, rows)
			union := make(map[string]int32)
			for _, t := range tables {
				src := t.Col(c)
				remap := make([]int32, len(src.Dict))
				for i, s := range src.Dict {
					code, ok := union[s]
					if !ok {
						code = int32(len(col.Dict))
						union[s] = code
						col.Dict = append(col.Dict, s)
					}
					remap[i] = code
				}
				for _, code := range src.Codes {
					col.Codes = append(col.Codes, remap[code])
				}
			}
		}
		cols[c] = col
	}
	return table.New(schema, cols)
}

// ReadAll reads r to the end and decodes it as one table: an archive
// through SegReader.ReadAll, anything else as a bare codec stream. Read
// errors are wrapped with %w, so callers can still match the reader's
// own error types. A structurally valid archive with zero segments
// returns ErrEmptyArchive.
func ReadAll(r io.Reader) (*table.Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("archive: reading input: %w", err)
	}
	sr, err := OpenSegmented(bytes.NewReader(data))
	if err != nil {
		if errors.Is(err, ErrNotArchive) {
			return core.Decompress(bytes.NewReader(data))
		}
		return nil, err
	}
	defer sr.Close()
	return sr.ReadAll()
}
