// The container ("SPARC4\n") is the one compressed form: a magic, one
// length-prefixed frame per segment, each holding a body; a zero length
// ending the segment region; the model block every body decodes against;
// a footer recording the model block's extent and each segment's extent,
// row count and zone maps; and a fixed-size trailer that locates and
// checksums the footer (see docs/FORMAT.md). A table compressed in one
// piece is a container with one segment.

package codec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"repro/internal/par"
	"repro/internal/table"
)

const (
	magic = "SPARC4\n"
	// Trailer layout: crc32(footer) uint32 LE, footer length uint32 LE,
	// end magic. Fixed size so a reader finds it at EOF−16 without
	// scanning.
	endMagic    = "SPARC4E\n"
	trailerSize = 4 + 4 + len(endMagic)
	// maxFooterBytes caps the trailer's declared footer length (256 MiB —
	// far above any real footer, which costs tens of bytes per segment).
	maxFooterBytes = 1 << 28
	// maxArchiveBytes caps every wire-declared byte extent (1 TiB): an
	// offset or length past it is a lie, and bounding the values up front
	// keeps later arithmetic on them overflow-free.
	maxArchiveBytes = 1 << 40
)

var (
	// ErrNotArchive is returned for input that does not start with the
	// container magic; test for it with errors.Is.
	ErrNotArchive = errors.New("codec: not a SPARC4 archive")
	// ErrEmptyArchive is returned when reading the rows of a structurally
	// valid archive that holds zero segments: no model was ever learned,
	// so no table can be reconstructed.
	ErrEmptyArchive = errors.New("codec: empty archive (no segments)")
	// ErrReaderClosed is returned by segment reads attempted after Close.
	ErrReaderClosed = errors.New("codec: reader is closed")
)

// FramingError reports a segment whose body did not fill its declared
// frame length. The frame then holds bytes no decoder reads, so the
// mismatch is fatal rather than skippable.
type FramingError struct {
	Segment  int   // zero-based segment index
	Declared int64 // frame length from the uvarint prefix
	Consumed int64 // bytes the body actually occupied
}

func (e *FramingError) Error() string {
	return fmt.Sprintf("codec: segment %d: body ends after %d of %d declared bytes",
		e.Segment, e.Consumed, e.Declared)
}

// ZoneMap summarizes one column of one segment for predicate pruning.
type ZoneMap struct {
	// Min and Max bound every value the segment can decode to for a
	// numeric column: the observed range widened by the tolerance the
	// model block records, the bound every segment reconstructs within,
	// so lossy reconstruction stays inside the zone. Zero for
	// categorical columns.
	Min, Max float64
	// Fingerprint is a 64-bit membership filter for a categorical
	// column: bit fpBit(v) is set for every dictionary value v present
	// in the segment. A clear bit proves absence; a set bit proves
	// nothing (collisions). Zero for numeric columns.
	Fingerprint uint64
}

// MayContain reports whether the categorical value could be present in
// the zone's segment. False is definite absence.
func (z ZoneMap) MayContain(value string) bool {
	return z.Fingerprint&fpBit(value) != 0
}

// fpBit hashes a categorical value to its fingerprint bit.
func fpBit(value string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(value)) // fnv never fails
	return 1 << (h.Sum64() % 64)
}

// ComputeZones builds the per-column zone maps of one segment's rows.
// Numeric zones are widened by the resolved tolerances the rows were
// compressed under (nil for lossless), so decoded values provably stay
// inside them.
func ComputeZones(t *table.Table, resolved table.Tolerances) []ZoneMap {
	zones := make([]ZoneMap, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		col := t.Col(i)
		if t.Attr(i).Kind == table.Numeric {
			lo, hi := col.MinMax()
			e := 0.0
			if resolved != nil {
				e = resolved[i].Value
			}
			zones[i] = ZoneMap{Min: lo - e, Max: hi + e}
			continue
		}
		// One pass over codes, hashing each dictionary entry at most once.
		seen := make([]bool, len(col.Dict))
		var fp uint64
		for _, code := range col.Codes {
			if !seen[code] {
				seen[code] = true
				fp |= fpBit(col.Dict[code])
			}
		}
		zones[i] = ZoneMap{Fingerprint: fp}
	}
	return zones
}

// extent is where a section lives in the container: its byte offset and
// length.
type extent struct{ Offset, Length int64 }

// SegmentInfo is one footer entry: where a segment's body lives and what
// its rows can contain.
type SegmentInfo struct {
	// Offset is the position of the segment's body (after the uvarint
	// length prefix); Length is its byte count.
	Offset, Length int64
	// Rows is the segment's row count.
	Rows int
	// Zones holds one ZoneMap per schema column.
	Zones []ZoneMap
}

// Writer writes a container: the magic, one frame per WriteSegment, and
// on Close the terminator, the model block, the footer and the trailer.
// The first write error latches: a frame torn mid-write leaves the
// container structurally corrupt, so every later WriteSegment and Close
// refuses with the original error instead of appending to garbage.
type Writer struct {
	w    *bufio.Writer
	segs []SegmentInfo
	off  int64 // bytes written so far: where the next frame's prefix lands
	err  error // first write error; sticky
}

// NewWriter starts a container on w.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{w: bufio.NewWriter(w), off: int64(len(magic))}
	_, cw.err = cw.w.WriteString(magic)
	return cw
}

// WriteSegment appends one frame holding body, a body of rows rows, and
// records its footer entry with zones (one per column, see ComputeZones).
func (cw *Writer) WriteSegment(body []byte, rows int, zones []ZoneMap) error {
	if cw.err != nil {
		return cw.err
	}
	prefix := binary.AppendUvarint(nil, uint64(len(body)))
	for _, b := range [][]byte{prefix, body} {
		if _, err := cw.w.Write(b); err != nil {
			cw.err = fmt.Errorf("codec: writing segment %d: %w", len(cw.segs), err)
			return cw.err
		}
	}
	cw.segs = append(cw.segs, SegmentInfo{
		Offset: cw.off + int64(len(prefix)),
		Length: int64(len(body)),
		Rows:   rows,
		Zones:  zones,
	})
	cw.off += int64(len(prefix) + len(body))
	return nil
}

// NumSegments returns how many segments have been written.
func (cw *Writer) NumSegments() int { return len(cw.segs) }

// Size returns the bytes written so far; after Close, the container's
// size.
func (cw *Writer) Size() int64 { return cw.off }

// Close writes the terminator, mb (nil only when no segment was
// written), the footer and the trailer, flushes, and returns mb's
// breakdown. The Writer cannot be reused.
func (cw *Writer) Close(mb *ModelBlock) (Breakdown, error) {
	if cw.err != nil {
		return Breakdown{}, cw.err
	}
	if mb == nil {
		if len(cw.segs) > 0 {
			return Breakdown{}, fmt.Errorf("codec: %d segments without a model block", len(cw.segs))
		}
		return Breakdown{}, cw.finish(nil, nil)
	}
	// Serialize the model block to memory first: the footer needs its
	// extent, and an encoding error must not leave a partial section on
	// the wire.
	block, bd, err := mb.Encode()
	if err != nil {
		return bd, err
	}
	return bd, cw.finish(block, mb.Schema)
}

// finish writes the terminator, the encoded model block, the footer (its
// zone maps laid out by schema) and the trailer, then flushes.
func (cw *Writer) finish(block []byte, schema table.Schema) error {
	foot, err := appendFooter(nil, extent{Offset: cw.off + 1, Length: int64(len(block))}, schema, cw.segs)
	if err != nil {
		return err
	}
	if len(foot) > maxFooterBytes {
		return fmt.Errorf("codec: footer of %d bytes exceeds format limit %d", len(foot), maxFooterBytes)
	}
	tail := binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(foot)))
	tail = append(tail, endMagic...)
	for _, chunk := range [][]byte{{0}, block, tail} {
		if _, err := cw.w.Write(chunk); err != nil {
			cw.err = err
			return err
		}
		cw.off += int64(len(chunk))
	}
	cw.err = cw.w.Flush()
	return cw.err
}

// appendFooter appends the footer to dst: the model block's extent (of
// length zero in a container with no segments), then the segment
// directory with zone maps laid out by the schema's kinds. The schema
// itself, with its dictionaries, is in the model block.
func appendFooter(dst []byte, modelBlock extent, schema table.Schema, segs []SegmentInfo) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(modelBlock.Offset))
	dst = binary.AppendUvarint(dst, uint64(modelBlock.Length))
	dst = binary.AppendUvarint(dst, uint64(len(segs)))
	for _, seg := range segs {
		dst = binary.AppendUvarint(dst, uint64(seg.Offset))
		dst = binary.AppendUvarint(dst, uint64(seg.Length))
		dst = binary.AppendUvarint(dst, uint64(seg.Rows))
		if len(seg.Zones) != len(schema) {
			return nil, fmt.Errorf("codec: segment has %d zones for %d attributes", len(seg.Zones), len(schema))
		}
		for i, z := range seg.Zones {
			if schema[i].Kind != table.Numeric {
				dst = binary.LittleEndian.AppendUint64(dst, z.Fingerprint)
				continue
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(z.Min))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(z.Max))
		}
	}
	return dst, nil
}

// Reader reads a container through its footer: the model block is
// decoded once when it opens, and segments decode on demand by index.
// Methods that touch the underlying stream share its seek position and
// must not be called concurrently.
type Reader struct {
	r      io.ReadSeeker
	lim    DecodeLimits
	model  *ModelBlock // nil for an archive with no segments
	segs   []SegmentInfo
	rows   int
	closed bool
}

// Decode decodes every segment of the archive that r holds from its
// current position to its end into one table, applying the default
// DecodeLimits. An io.ReadSeeker at offset 0 is read in place; any other
// reader is first read to the end, with read errors wrapped with %w. An
// archive with zero segments returns ErrEmptyArchive.
func Decode(r io.Reader) (*table.Table, error) {
	rs, ok := r.(io.ReadSeeker)
	if ok {
		off, err := rs.Seek(0, io.SeekCurrent)
		ok = err == nil && off == 0
	}
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("codec: reading input: %w", err)
		}
		rs = bytes.NewReader(data)
	}
	cr, err := Open(rs, DecodeLimits{})
	if err != nil {
		return nil, err
	}
	return cr.ReadAll()
}

// Open parses the trailer and footer of a seekable container and decodes
// its model block, under lim (zero fields keep their defaults), which
// also bounds every later segment decode. Input that does not start with
// the container magic fails with ErrNotArchive.
func Open(r io.ReadSeeker, lim DecodeLimits) (*Reader, error) {
	lim = lim.withDefaults()
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	got := make([]byte, len(magic))
	n, err := io.ReadFull(r, got)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if string(got[:n]) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrNotArchive, got[:n])
	}
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	// Smallest legal container: magic, terminator byte, footer, trailer.
	if size < int64(len(magic))+1+int64(trailerSize) {
		return nil, fmt.Errorf("codec: %d bytes is too short for an archive", size)
	}
	if _, err := r.Seek(size-int64(trailerSize), io.SeekStart); err != nil {
		return nil, err
	}
	var tr [trailerSize]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return nil, fmt.Errorf("codec: reading trailer: %w", err)
	}
	if string(tr[8:]) != endMagic {
		return nil, fmt.Errorf("codec: bad end magic %q (truncated archive)", tr[8:])
	}
	wantCRC := binary.LittleEndian.Uint32(tr[0:4])
	footLen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	if footLen > size-int64(trailerSize)-int64(len(magic))-1 {
		return nil, fmt.Errorf("codec: trailer claims %d-byte footer in %d-byte archive", footLen, size)
	}
	if _, err := r.Seek(size-int64(trailerSize)-footLen, io.SeekStart); err != nil {
		return nil, err
	}
	foot, err := readFullGrowing(r, nil, uint64(footLen), maxFooterBytes)
	if err != nil {
		return nil, fmt.Errorf("codec: reading footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(foot); got != wantCRC {
		return nil, fmt.Errorf("codec: footer checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	fbr := bytes.NewReader(foot)
	blockExt, err := readExtent(fbr, size, "model block")
	if err != nil {
		return nil, err
	}
	cr := &Reader{r: r, lim: lim}
	var schema table.Schema
	if blockExt.Length > 0 {
		if _, err := r.Seek(blockExt.Offset, io.SeekStart); err != nil {
			return nil, err
		}
		block, err := readFullGrowing(r, nil, uint64(blockExt.Length), maxArchiveBytes)
		if err != nil {
			return nil, fmt.Errorf("codec: reading model block: %w", err)
		}
		if cr.model, err = DecodeModelBlock(block, lim); err != nil {
			return nil, err
		}
		schema = cr.model.Schema
	}
	if cr.segs, err = readSegments(fbr, size, schema, lim); err != nil {
		return nil, err
	}
	for _, seg := range cr.segs {
		if seg.Rows > math.MaxInt-cr.rows {
			return nil, fmt.Errorf("codec: footer row counts overflow")
		}
		cr.rows += seg.Rows
	}
	return cr, nil
}

// readExtent reads an extent from the footer and checks it lies inside a
// container of size bytes, after the magic.
func readExtent(br *bytes.Reader, size int64, what string) (extent, error) {
	off, err := binary.ReadUvarint(br)
	if err != nil {
		return extent{}, fmt.Errorf("codec: reading %s offset: %w", what, err)
	}
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return extent{}, fmt.Errorf("codec: reading %s length: %w", what, err)
	}
	if off > maxArchiveBytes || off > uint64(size) || off < uint64(len(magic)) {
		return extent{}, fmt.Errorf("codec: footer %s offset %d outside archive of %d bytes", what, off, size)
	}
	if length > maxArchiveBytes || length > uint64(size)-off {
		return extent{}, fmt.Errorf("codec: footer %s length %d overruns archive of %d bytes", what, length, size)
	}
	return extent{Offset: int64(off), Length: int64(length)}, nil
}

// readSegments parses the footer's segment directory, which follows the
// model block's extent. schema is the model block's (nil when there is
// none, and then there must be no segments); size is the container's
// byte size, used to reject segment extents pointing outside it; lim
// (with its defaults) bounds the allocations a hostile footer could
// otherwise demand.
func readSegments(br *bytes.Reader, size int64, schema table.Schema, lim DecodeLimits) ([]SegmentInfo, error) {
	nsegs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("codec: reading footer segment count: %w", err)
	}
	if nsegs > maxFooterBytes || nsegs > uint64(size) {
		// Every segment costs at least one byte (and several footer
		// bytes), so a count past either size is a lie regardless of limits.
		return nil, fmt.Errorf("codec: footer claims %d segments in a %d-byte archive", nsegs, size)
	}
	if nsegs > 0 && schema == nil {
		return nil, fmt.Errorf("codec: footer claims %d segments but no model block", nsegs)
	}
	// Grow incrementally so a lying count cannot force a huge allocation
	// before the footer bytes run out.
	segs := make([]SegmentInfo, 0, min(int(nsegs), 1<<12))
	for s := uint64(0); s < nsegs; s++ {
		ext, err := readExtent(br, size, fmt.Sprintf("segment %d", s))
		if err != nil {
			return nil, err
		}
		rows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if rows > lim.MaxRows {
			return nil, fmt.Errorf("codec: footer segment %d row count %d exceeds limit %d", s, rows, lim.MaxRows)
		}
		zones := make([]ZoneMap, len(schema))
		var b [8]byte
		for i := range zones {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			if schema[i].Kind != table.Numeric {
				zones[i].Fingerprint = binary.LittleEndian.Uint64(b[:])
				continue
			}
			zones[i].Min = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			zones[i].Max = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		segs = append(segs, SegmentInfo{Offset: ext.Offset, Length: ext.Length, Rows: int(rows), Zones: zones})
	}
	return segs, nil
}

// Close releases the reader. When the underlying stream is itself an
// io.Closer — an *os.File, a network body — it is closed too; an
// in-memory reader just drops the reference. Close is idempotent and
// nil-receiver-safe. Reads after Close fail with ErrReaderClosed; the
// footer metadata stays readable.
func (cr *Reader) Close() error {
	if cr == nil || cr.closed {
		return nil
	}
	cr.closed = true
	r := cr.r
	cr.r = nil
	if c, ok := r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Schema returns the container's schema (nil when it has no segments).
func (cr *Reader) Schema() table.Schema {
	if cr.model == nil {
		return nil
	}
	return cr.model.Schema
}

// Tolerances returns the tolerance vector the model block records: per
// attribute, the absolute error bound (numeric) or the largest mismatch
// rate (categorical) every segment reconstructs within. It is the only
// vector a query over the archive's rows may assume; nil when the
// archive has no segments.
func (cr *Reader) Tolerances() table.Tolerances {
	if cr.model == nil {
		return nil
	}
	return slices.Clone(cr.model.Tolerances)
}

// NumSegments returns how many segments the footer records.
func (cr *Reader) NumSegments() int { return len(cr.segs) }

// Info returns the footer entry for segment i.
func (cr *Reader) Info(i int) SegmentInfo { return cr.segs[i] }

// TotalRows returns the row count summed over the footer's segments.
func (cr *Reader) TotalRows() int { return cr.rows }

// Columns returns the attribute set a read of the named attributes
// decodes (see DecodeBody): each named attribute and the predictors of
// every predicted one among them. Split attributes are always
// materialized, so one step closes the set. A read of no attribute keeps
// attribute 0, so a decoded table still carries its row count. An
// unknown name, or an archive with no segments, gives nil: every
// attribute, so the reader's caller reports the unknown name as it would
// over a full decode.
func (cr *Reader) Columns(names []string) []bool {
	if cr.model == nil {
		return nil
	}
	cols := make([]bool, len(cr.model.Schema))
	for _, name := range names {
		i := cr.model.Schema.Index(name)
		if i < 0 {
			return nil
		}
		cols[i] = true
	}
	if len(names) == 0 {
		cols[0] = true
	}
	for _, m := range cr.model.Models {
		if cols[m.Target] {
			for _, a := range m.UsedPredictors() {
				cols[a] = true
			}
		}
	}
	return cols
}

// ReadSegments reads the frames of segments idx, then decodes them
// concurrently and returns them in order, each projected onto cols (nil:
// every attribute; see DecodeBody). Every segment read goes through
// here. The fan-out is bounded at GOMAXPROCS: each decode holds a whole
// decompressed segment, so one goroutine per frame on a thousand-segment
// archive would hold the entire table at once. No segment starts
// decoding once ctx is done.
func (cr *Reader) ReadSegments(ctx context.Context, idx []int, cols []bool) ([]*table.Table, error) {
	if cr.closed {
		return nil, ErrReaderClosed
	}
	// The frames are pooled buffers; a decoded table holds none of their
	// bytes, and every decode is done once ForEach returns.
	frames := make([]*[]byte, 0, len(idx))
	defer func() {
		for _, f := range frames {
			frameBufs.put(f)
		}
	}()
	for _, i := range idx {
		seg := cr.segs[i]
		if _, err := cr.r.Seek(seg.Offset, io.SeekStart); err != nil {
			return nil, err
		}
		f := frameBufs.get()
		var err error
		if *f, err = readFullGrowing(cr.r, *f, uint64(seg.Length), maxArchiveBytes); err != nil {
			return nil, fmt.Errorf("codec: reading segment %d: %w", i, err)
		}
		frames = append(frames, f)
	}
	tables := make([]*table.Table, len(idx))
	err := par.ForEach(ctx, len(idx), 0, func(_ context.Context, k int) error {
		var err error
		tables[k], err = cr.decodeSegment(idx[k], *frames[k], cols)
		return err
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// decodeSegment decodes segment i's frame against the model block,
// projected onto cols, and checks it against the footer: the body must
// fill the frame exactly (a shorter body means trailing garbage inside
// the frame) and yield the recorded rows.
func (cr *Reader) decodeSegment(i int, frame []byte, cols []bool) (*table.Table, error) {
	t, consumed, err := cr.model.DecodeBody(frame, cr.lim, cols)
	if err != nil {
		return nil, fmt.Errorf("codec: decoding segment %d: %w", i, err)
	}
	if consumed < len(frame) {
		return nil, &FramingError{Segment: i, Declared: int64(len(frame)), Consumed: int64(consumed)}
	}
	if t.NumRows() != cr.segs[i].Rows {
		return nil, fmt.Errorf("codec: segment %d decoded %d rows, footer records %d", i, t.NumRows(), cr.segs[i].Rows)
	}
	return t, nil
}

// Segment decodes segment i, verifying its frame against the footer.
func (cr *Reader) Segment(i int) (*table.Table, error) {
	tables, err := cr.ReadSegments(context.Background(), []int{i}, nil)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// ReadAll decodes every segment (concurrently, bounded at GOMAXPROCS)
// and concatenates the rows. An archive with no segments returns
// ErrEmptyArchive.
func (cr *Reader) ReadAll() (*table.Table, error) {
	idx := make([]int, len(cr.segs))
	for i := range idx {
		idx[i] = i
	}
	tables, err := cr.ReadSegments(context.Background(), idx, nil)
	if err != nil {
		return nil, err
	}
	return Merge(tables)
}

// Merge concatenates decoded segments of one container column by column,
// in order. Segments decode against one model block, so they share its
// schema and dictionaries: numeric values and categorical codes append as
// they are. One table is returned as decoded; none is ErrEmptyArchive.
func Merge(tables []*table.Table) (*table.Table, error) {
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
