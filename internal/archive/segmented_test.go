package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/table"
)

// prunableTable builds a table whose halves occupy disjoint numeric
// ranges and categorical domains, so a 2-segment split gives zone maps
// that can refute half-targeting predicates.
func prunableTable(t *testing.T, rowsPerHalf int) *table.Table {
	t.Helper()
	b, err := table.NewBuilder(table.Schema{
		{Name: "v", Kind: table.Numeric},
		{Name: "w", Kind: table.Numeric},
		{Name: "region", Kind: table.Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rowsPerHalf; i++ {
		b.MustAppendRow(float64(i%10), float64(i%7)*3.5, "east")
	}
	for i := 0; i < rowsPerHalf; i++ {
		b.MustAppendRow(1000+float64(i%10), float64(i%7)*3.5, "west")
	}
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestWriteTableRoundTrip(t *testing.T) {
	tb := datagen.CDR(2500, 7)
	var buf bytes.Buffer
	stats, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 600})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 5 {
		t.Errorf("segments = %d, want 5", stats.Segments)
	}
	if stats.Rows != tb.NumRows() {
		t.Errorf("rows = %d, want %d", stats.Rows, tb.NumRows())
	}
	if stats.CompressedBytes != buf.Len() {
		t.Errorf("CompressedBytes = %d, archive is %d bytes", stats.CompressedBytes, buf.Len())
	}
	// Whole-input read path.
	back, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("ReadAll round trip changed the table")
	}
	// Footer-driven read path.
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != 5 || sr.TotalRows() != tb.NumRows() {
		t.Errorf("footer: %d segments / %d rows, want 5 / %d", sr.NumSegments(), sr.TotalRows(), tb.NumRows())
	}
	back2, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back2) {
		t.Error("footer round trip changed the table")
	}
	// Per-segment decode agrees with the footer's row counts.
	for i := 0; i < sr.NumSegments(); i++ {
		seg, err := sr.Segment(i)
		if err != nil {
			t.Fatal(err)
		}
		if seg.NumRows() != sr.Info(i).Rows {
			t.Errorf("segment %d: %d rows, footer says %d", i, seg.NumRows(), sr.Info(i).Rows)
		}
	}
}

// TestParallelDeterminism: the archive bytes must not depend on the
// worker count, and must match what sequential WriteBlock calls over the
// same row split produce.
func TestParallelDeterminism(t *testing.T) {
	tb := datagen.CDR(2000, 11)
	write := func(workers int) []byte {
		var buf bytes.Buffer
		if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 500, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := write(1)
	parallel := write(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parallel archive bytes differ from sequential")
	}
	// Sequential WriteBlock over the same split.
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range splitBlocks(t, tb, 500) {
		if _, err := aw.WriteBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, buf.Bytes()) {
		t.Fatal("WriteTable bytes differ from sequential WriteBlock calls")
	}
}

func TestZoneMapPruning(t *testing.T) {
	tb := prunableTable(t, 300)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 300}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	full, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		where      query.Predicate
		wantPruned int
	}{
		{"numeric refutes first half", query.NumCmp("v", query.Gt, 500), 1},
		{"numeric refutes second half", query.NumCmp("v", query.Lt, 500), 1},
		{"numeric refutes nothing", query.NumCmp("w", query.Ge, 0), 0},
		{"categorical refutes first half", query.CatIn("region", "west"), 1},
		{"conjunction refutes both halves", query.And(query.NumCmp("v", query.Gt, 100), query.NumCmp("v", query.Lt, 900)), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.Query{Agg: query.Sum, Column: "w", Where: tc.where}
			res, qs, err := sr.Query(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			if qs.Pruned != tc.wantPruned {
				t.Errorf("pruned %d segments, want %d (stats %+v)", qs.Pruned, tc.wantPruned, qs)
			}
			if qs.Pruned+qs.Decoded != qs.Segments {
				t.Errorf("pruned %d + decoded %d != %d segments", qs.Pruned, qs.Decoded, qs.Segments)
			}
			want, err := query.Run(full, nil, q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, res, want)
		})
	}
}

// TestZoneMapPruningLossy: pruning under a nonzero numeric tolerance
// must match the full-decode answer, including its uncertainty bounds.
func TestZoneMapPruningLossy(t *testing.T) {
	tb := prunableTable(t, 300)
	tol := table.Tolerances{{Value: 0.5}, {Value: 0.5}, {}}
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{Tolerances: tol}, SegmentOptions{SegmentRows: 300}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	full, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Agg: query.Sum, Column: "w", Where: query.NumCmp("v", query.Gt, 500)}
	res, qs, err := sr.Query(tol, q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Pruned != 1 {
		t.Errorf("pruned %d segments, want 1", qs.Pruned)
	}
	want, err := query.Run(full, tol, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
}

func assertSameResult(t *testing.T, got, want *query.Result) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("got %d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		g, w := got.Groups[i], want.Groups[i]
		if g != w {
			t.Errorf("group %d: got %+v, want %+v", i, g, w)
		}
	}
}

// singleFrameArchive writes a one-segment archive whose frame and footer
// row count are given verbatim, through the writer's own framing and
// footer code, so tests can plant exactly one inconsistency.
func singleFrameArchive(t *testing.T, tb *table.Table, frame []byte, rows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	zones, err := computeZones(tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.noteSchema(tb.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := aw.appendFrame(frame, rows, zones); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFramingGarbage (framing bugfix): a frame whose declared length
// exceeds its codec stream must fail with FramingError instead of
// silently ignoring the trailing garbage.
func TestFramingGarbage(t *testing.T) {
	tb := datagen.CDR(200, 5)
	var stream bytes.Buffer
	if _, err := core.Compress(&stream, tb, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// The single frame is the valid codec stream padded with trailing
	// garbage, all inside the declared length.
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	padded := append(append([]byte(nil), stream.Bytes()...), garbage...)
	data := singleFrameArchive(t, tb, padded, tb.NumRows())

	_, err := ReadAll(bytes.NewReader(data))
	var fe *FramingError
	if !errors.As(err, &fe) {
		t.Fatalf("ReadAll = %v, want FramingError", err)
	}
	if fe.Segment != 0 || fe.Declared != int64(len(padded)) || fe.Consumed != int64(stream.Len()) {
		t.Errorf("FramingError = %+v, want segment 0, declared %d, consumed %d",
			fe, len(padded), stream.Len())
	}
	// A correctly framed stream still decodes.
	ok := singleFrameArchive(t, tb, stream.Bytes(), tb.NumRows())
	back, err := ReadAll(bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("hand-framed archive round trip changed the table")
	}
}

// TestFooterRowCountMismatch (footer bugfix): a footer whose row count
// disagrees with the segment it describes is rejected on every read
// path, not only by per-segment decodes.
func TestFooterRowCountMismatch(t *testing.T) {
	tb := datagen.CDR(300, 5)
	var stream bytes.Buffer
	if _, err := core.Compress(&stream, tb, core.Options{}); err != nil {
		t.Fatal(err)
	}
	data := singleFrameArchive(t, tb, stream.Bytes(), tb.NumRows()+7)

	if _, err := ReadAll(bytes.NewReader(data)); err == nil {
		t.Error("ReadAll accepted a footer row count of rows+7")
	}
	sr, err := OpenSegmented(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadAll(); err == nil {
		t.Error("SegReader.ReadAll accepted a footer row count of rows+7")
	}
	if _, err := sr.Segment(0); err == nil {
		t.Error("SegReader.Segment accepted a footer row count of rows+7")
	}
	if _, _, err := sr.Query(nil, query.Query{Agg: query.Count}); err == nil {
		t.Error("SegReader.Query accepted a footer row count of rows+7")
	}
}

// failAfterWriter fails every Write once n bytes have passed through.
type failAfterWriter struct {
	n    int
	seen int
}

var errInjected = errors.New("injected write failure")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.seen >= w.n {
		return 0, errInjected
	}
	w.seen += len(p)
	return len(p), nil
}

// TestWriterStickyError (torn-write bugfix): after a failed frame write
// the Writer must refuse further writes and surface the original error
// from Close, instead of appending frames to a torn stream.
func TestWriterStickyError(t *testing.T) {
	aw, err := NewWriter(&failAfterWriter{n: len(magic)}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Large enough to overflow the bufio buffer and hit the sink.
	block := datagen.CDR(2000, 3)
	if _, err := aw.WriteBlock(block); !errors.Is(err, errInjected) {
		t.Fatalf("WriteBlock = %v, want injected failure", err)
	}
	if _, err := aw.WriteBlock(block); !errors.Is(err, errInjected) {
		t.Fatalf("second WriteBlock = %v, want latched injected failure", err)
	}
	if err := aw.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want latched injected failure", err)
	}
	if err := aw.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("second Close = %v, want latched injected failure", err)
	}
}

// TestEmptyArchive (zero-segment bugfix): writing an empty archive is
// legal and round-trips to the typed ErrEmptyArchive on every read path
// that must materialize rows.
func TestEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("ReadAll = %v, want ErrEmptyArchive", err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != 0 || sr.TotalRows() != 0 {
		t.Errorf("empty archive reports %d segments / %d rows", sr.NumSegments(), sr.TotalRows())
	}
	if _, err := sr.ReadAll(); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("SegReader.ReadAll = %v, want ErrEmptyArchive", err)
	}
	if _, _, err := sr.Query(nil, query.Query{Agg: query.Count}); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("SegReader.Query = %v, want ErrEmptyArchive", err)
	}
}

// retiredMagic opened the block archives that had no footer. Nothing
// writes them any more, and no reader accepts them.
const retiredMagic = "SPARC1\n"

// TestV1ReadCompat: block archives (magic "SPARC1\n", same framing, no
// footer) are refused with the typed ErrNotArchive instead of decoding.
func TestV1ReadCompat(t *testing.T) {
	tb := datagen.CDR(900, 9)
	data := []byte(retiredMagic)
	for i, block := range splitBlocks(t, tb, 300) {
		var stream bytes.Buffer
		if _, err := core.Compress(&stream, block, core.Options{Seed: 1 + int64(i)}); err != nil {
			t.Fatal(err)
		}
		data = binary.AppendUvarint(data, uint64(stream.Len()))
		data = append(data, stream.Bytes()...)
	}
	data = append(data, 0)

	if _, err := OpenSegmented(bytes.NewReader(data)); !errors.Is(err, ErrNotArchive) {
		t.Errorf("OpenSegmented = %v, want ErrNotArchive", err)
	}
	if _, err := ReadAll(bytes.NewReader(data)); err == nil {
		t.Error("ReadAll decoded a block archive")
	}
}

// TestWriteTableEmpty: a zero-row table produces a legal empty archive.
func TestWriteTableEmpty(t *testing.T) {
	b, err := table.NewBuilder(table.Schema{{Name: "x", Kind: table.Numeric}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stats, err := WriteTable(&buf, empty, core.Options{}, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 0 {
		t.Errorf("segments = %d, want 0", stats.Segments)
	}
	if stats.CompressedBytes != buf.Len() {
		t.Errorf("CompressedBytes = %d, archive is %d bytes", stats.CompressedBytes, buf.Len())
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("ReadAll = %v, want ErrEmptyArchive", err)
	}
}

// TestSegmentedCancel: a cancelled context abandons the parallel write.
func TestSegmentedCancel(t *testing.T) {
	tb := datagen.CDR(3000, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WriteTableContext(ctx, io.Discard, tb, core.Options{}, SegmentOptions{SegmentRows: 300}); err == nil {
		t.Fatal("WriteTableContext succeeded with a cancelled context")
	}
}
