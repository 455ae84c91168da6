// Package archive provides a segmented ("row-group") container for
// SPARTAN, so tables far larger than memory compress in bounded space and
// decode with seek-and-prune access. Models are learned once per archive
// — one sample, one dependency finder run, one CaRT selection — and every
// segment is a codec body applied against them: its own row aggregation,
// outliers and T'. The archive stores the codec model block (schema,
// dictionaries, materialized list, CaRT trees) once, after the segments,
// and ends in a footer that locates the model block and records
// per-segment metadata — byte offset, length, row count and per-column
// zone maps — letting readers skip segments a predicate provably
// excludes without touching their bodies.
//
// Format ("SPARC3\n"): magic, then for each segment a uvarint byte
// length followed by a codec body; a zero length terminates the segment
// region; then the model block, the footer and a fixed-size trailer (see
// docs/FORMAT.md). SegReader is the only decoder: it decodes the model
// block once when it opens an archive, and every read path checks the
// trailer, the footer checksum and each segment's row count against its
// footer entry. This package is the only one that knows the container
// magic: OpenSegmented refuses anything else with ErrNotArchive, and
// ReadAll falls back to decoding a bare codec stream. All segments share
// the model block's schema and dictionaries, so a multi-segment read
// concatenates their columns as they are. A read that keeps one segment
// returns it as decoded.
package archive

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/table"
)

const magic = "SPARC3\n"

// maxArchiveBytes caps every wire-declared byte extent (1 TiB): an
// offset or length past it is a lie, and bounding the values up front
// keeps later arithmetic on them overflow-free.
const maxArchiveBytes = 1 << 40

// ErrEmptyArchive is returned when reading a structurally valid archive
// that contains zero segments. Writing one is legal (NewWriter + Close,
// or WriteTable on a zero-row table), but no model was ever learned, so
// no table can be reconstructed; callers that accept empty archives
// must test for this error with errors.Is.
var ErrEmptyArchive = errors.New("archive: empty archive (no segments)")

// ErrNotArchive is returned by OpenSegmented for input that does not
// start with the archive magic; test for it with errors.Is.
var ErrNotArchive = errors.New("archive: not a segmented archive")

// FramingError reports a segment whose codec body did not fill its
// declared frame length. The frame then holds bytes no decoder reads, so
// the mismatch is fatal rather than skippable.
type FramingError struct {
	Segment  int   // zero-based segment index
	Declared int64 // frame length from the uvarint prefix
	Consumed int64 // bytes the codec body actually occupied
}

func (e *FramingError) Error() string {
	return fmt.Sprintf("archive: segment %d: codec body ends after %d of %d declared bytes",
		e.Segment, e.Consumed, e.Declared)
}

// Writer appends segments to an archive stream, accumulating the
// footer's per-segment metadata as it goes. It learns the archive's
// models from the first block and applies them to every block.
//
// The first write error latches: a frame torn mid-write leaves the
// stream structurally corrupt, so every later WriteBlock and Close
// refuses with the original error instead of appending to garbage.
type Writer struct {
	w     *bufio.Writer
	opts  core.Options
	model *core.Model // learned from the first block; nil before it
	// dicts are the archive dictionaries: the learn input's, extended by
	// values later blocks bring. index maps their values to codes and is
	// built when a block first needs recoding.
	dicts  [][]string
	index  []map[string]int32
	segs   []SegmentInfo
	off    int64 // stream offset where the next frame's prefix lands
	blocks int
	block  codec.Breakdown // the model block's bytes, set by Close
	total  int64           // final archive size, set by Close
	err    error           // first write error; sticky
	closed bool
}

// NewWriter starts an archive on w. The options apply to the whole
// archive: the models, and the resolution of quantile tolerances, come
// from the first block written (WriteTable learns on the whole table).
func NewWriter(w io.Writer, opts core.Options) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, opts: opts, off: int64(len(magic))}, nil
}

// WriteBlock compresses one segment of rows. The first block's rows are
// the learn input for the whole archive; every later block must carry
// the same schema, and its categorical codes are remapped into the
// archive dictionaries once, here. The first block's Stats include the
// learn step's timings and counts (see core.Model.AddLearnStats); the
// model block itself is written by Close.
func (aw *Writer) WriteBlock(t *table.Table) (*core.Stats, error) {
	if aw.err != nil {
		return nil, aw.err
	}
	if aw.closed {
		return nil, fmt.Errorf("archive: writer is closed")
	}
	m := aw.model
	if m == nil {
		var err error
		if m, err = core.Learn(context.Background(), t, aw.opts); err != nil {
			return nil, err
		}
	} else {
		if err := sameSchema(m.Block().Schema, t.Schema()); err != nil {
			return nil, err
		}
		var err error
		if t, err = aw.remap(t); err != nil {
			return nil, err
		}
	}
	res, err := compressSegment(context.Background(), m, t)
	if err != nil {
		return nil, err // nothing reached the stream; the writer stays usable
	}
	if aw.model == nil {
		aw.setModel(m)
		m.AddLearnStats(res.stats)
	}
	if err := aw.appendFrame(res.frame, res.rows, res.zones); err != nil {
		return nil, err
	}
	return res.stats, nil
}

// setModel makes m the archive's model and its learn input's
// dictionaries the archive dictionaries.
func (aw *Writer) setModel(m *core.Model) {
	aw.model = m
	aw.dicts = make([][]string, len(m.Block().Dicts))
	for c, d := range m.Block().Dicts {
		// Clipped, so appending new values never writes into the learn
		// input's dictionary.
		aw.dicts[c] = slices.Clip(d)
	}
	aw.index = make([]map[string]int32, len(aw.dicts))
}

// remap returns t with every categorical column coded against the
// archive dictionary, appending the values the archive has not seen yet.
func (aw *Writer) remap(t *table.Table) (*table.Table, error) {
	cols := make([]*table.Column, t.NumCols())
	for c := range cols {
		src := t.Col(c)
		cols[c] = src
		if src.Kind != table.Categorical {
			continue
		}
		if aw.index[c] == nil {
			aw.index[c] = make(map[string]int32, len(aw.dicts[c]))
			for code, v := range aw.dicts[c] {
				aw.index[c][v] = int32(code)
			}
		}
		codeOf := make([]int32, len(src.Dict))
		for i, v := range src.Dict {
			code, ok := aw.index[c][v]
			if !ok {
				code = int32(len(aw.dicts[c]))
				aw.index[c][v] = code
				aw.dicts[c] = append(aw.dicts[c], v)
			}
			codeOf[i] = code
		}
		codes := make([]int32, len(src.Codes))
		for r, code := range src.Codes {
			codes[r] = codeOf[code]
		}
		cols[c] = &table.Column{Kind: table.Categorical, Codes: codes, Dict: slices.Clip(aw.dicts[c])}
	}
	return table.New(t.Schema(), cols)
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

// Close writes the terminator, the model block (with the archive
// dictionaries), the footer and the trailer, then flushes. The writer
// cannot be reused. After a latched write error Close performs no
// further writes and surfaces that error instead.
func (aw *Writer) Close() error {
	if aw.closed {
		return aw.err
	}
	aw.closed = true
	if aw.err != nil {
		return aw.err
	}
	aw.err = aw.finish()
	return aw.err
}

func (aw *Writer) finish() error {
	if err := aw.w.WriteByte(0); err != nil { // uvarint(0) terminator
		return err
	}
	// Serialize the model block and footer to memory first: the footer
	// needs the block's extent, the trailer the footer's CRC and length,
	// and an encoding error must not leave a partial section on the wire.
	var block bytes.Buffer
	var schema table.Schema
	if aw.model != nil {
		final := *aw.model.Block()
		final.Dicts = aw.dicts
		var err error
		if aw.block, err = final.Encode(&block); err != nil {
			return err
		}
		schema = final.Schema
	}
	modelBlock := extent{Offset: aw.off + 1, Length: int64(block.Len())}
	var fbuf bytes.Buffer
	fbw := bufio.NewWriter(&fbuf)
	if err := writeFooter(fbw, modelBlock, schema, aw.segs); err != nil {
		return err
	}
	if err := fbw.Flush(); err != nil {
		return err
	}
	foot := fbuf.Bytes()
	trailer, err := makeTrailer(foot)
	if err != nil {
		return err
	}
	for _, chunk := range [][]byte{block.Bytes(), foot, trailer[:]} {
		if _, err := aw.w.Write(chunk); err != nil {
			return err
		}
	}
	if err := aw.w.Flush(); err != nil {
		return err
	}
	aw.total = aw.off + 1 + int64(block.Len()) + int64(len(foot)) + int64(len(trailer))
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

// mergeTables concatenates the decoded segments of one archive column by
// column, in order. Segments decode against the archive's one model
// block, so they share its schema and dictionaries: numeric values and
// categorical codes append as they are. One table is returned as
// decoded.
func mergeTables(tables []*table.Table) (*table.Table, error) {
	if len(tables) == 0 {
		return nil, ErrEmptyArchive
	}
	if len(tables) == 1 {
		return tables[0], nil
	}
	rows := 0
	for _, t := range tables {
		rows += t.NumRows()
	}
	first := tables[0]
	cols := make([]*table.Column, first.NumCols())
	for c := range cols {
		col := &table.Column{Kind: first.Attr(c).Kind, Dict: first.Col(c).Dict}
		if col.Kind == table.Numeric {
			col.Floats = make([]float64, 0, rows)
			for _, t := range tables {
				col.Floats = append(col.Floats, t.Col(c).Floats...)
			}
		} else {
			col.Codes = make([]int32, 0, rows)
			for _, t := range tables {
				col.Codes = append(col.Codes, t.Col(c).Codes...)
			}
		}
		cols[c] = col
	}
	return table.New(first.Schema(), cols)
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
