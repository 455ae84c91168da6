package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// The container's magic and fixed trailer size (see docs/FORMAT.md).
const (
	magic       = "SPARC3\n"
	trailerSize = 16
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
// worker count.
func TestParallelDeterminism(t *testing.T) {
	tb := datagen.CDR(2000, 11)
	write := func(workers int) []byte {
		var buf bytes.Buffer
		opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}
		if _, err := WriteTable(&buf, tb, opts, SegmentOptions{SegmentRows: 500, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := write(1)
	for _, workers := range []int{2, 4} {
		if !bytes.Equal(serial, write(workers)) {
			t.Fatalf("archive bytes at %d workers differ from 1 worker", workers)
		}
	}
}

// TestWriteTableLeavesInputUnchanged: segments are views that share the
// input's column storage, so applying the models to them must only read
// it, at any segment size and worker count.
func TestWriteTableLeavesInputUnchanged(t *testing.T) {
	tb := datagen.CDR(10000, 2)
	orig := tb.Clone()
	opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}
	for _, segRows := range []int{0, 500, 8000} {
		for _, workers := range []int{1, 4} {
			if _, err := WriteTable(io.Discard, tb, opts, SegmentOptions{SegmentRows: segRows, Workers: workers}); err != nil {
				t.Fatalf("segment rows %d, %d workers: %v", segRows, workers, err)
			}
			if !table.Equal(tb, orig) {
				t.Fatalf("segment rows %d, %d workers: WriteTable modified its input", segRows, workers)
			}
		}
	}
}

// TestLearnOnce: WriteTable learns one model for the whole table. The
// learn step's counts appear once, in the first segment's statistics,
// and every segment decodes with the archive dictionaries.
func TestLearnOnce(t *testing.T) {
	tb := datagen.CDR(2000, 4)
	opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}
	var single bytes.Buffer
	want, err := core.Compress(&single, tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stats, err := WriteTable(&buf, tb, opts, SegmentOptions{SegmentRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	first := stats.PerSegment[0]
	if first.CartsBuilt != want.CartsBuilt || !slices.Equal(first.Predicted, want.Predicted) {
		t.Errorf("first segment: %d CaRTs built, predicted %v; core.Compress built %d and predicted %v",
			first.CartsBuilt, first.Predicted, want.CartsBuilt, want.Predicted)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The segments' statistics count their bodies and, in the first, the
	// model block; the rest is the magic, the frame prefixes, the
	// terminator, the footer and the trailer.
	data := buf.Bytes()
	footLen := int(binary.LittleEndian.Uint32(data[len(data)-trailerSize+4:]))
	counted := stats.CompressedBytes - len(magic) - 1 - footLen - trailerSize
	for i, st := range stats.PerSegment {
		counted -= st.CompressedBytes + len(binary.AppendUvarint(nil, uint64(sr.Info(i).Length)))
		if i > 0 && (st.CartsBuilt != 0 || len(st.Predicted) != 0 || st.Timings.CaRTSelection != 0) {
			t.Errorf("segment %d repeats the learn step's statistics: %+v", i, st)
		}
	}
	if counted != 0 {
		t.Errorf("segment statistics miscount the archive's bytes by %d", counted)
	}
	for i := 0; i < sr.NumSegments(); i++ {
		seg, err := sr.Segment(i)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < seg.NumCols(); c++ {
			if !slices.Equal(seg.Col(c).Dict, tb.Col(c).Dict) {
				t.Fatalf("segment %d column %d dictionary %q, want the table's %q", i, c, seg.Col(c).Dict, tb.Col(c).Dict)
			}
		}
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

// TestZoneMapsUseArchiveTolerance: in a table sorted by one column the
// segments' value ranges are much narrower than the table's, so a
// quantile tolerance resolved per segment would be much narrower than
// the archive-wide one every segment reconstructs within. Zones must be
// widened by the archive-wide tolerance: every decoded value lies inside
// its segment's zone, the archive stays within the tolerance resolved
// against the whole table, and a pruned query equals the full-decode
// query. The CDR table sorted by start_hour is the benchmark's; in the
// second table a CaRT predicts y from the sorted x, so its predictions
// can leave a segment's observed range.
func TestZoneMapsUseArchiveTolerance(t *testing.T) {
	cdr := datagen.CDR(4000, 3)
	hour := cdr.Col(cdr.Schema().Index("start_hour")).Floats
	order := make([]int, cdr.NumRows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return hour[order[a]] < hour[order[b]] })
	sorted, err := cdr.SelectRows(order)
	if err != nil {
		t.Fatal(err)
	}
	linear := table.MustBuilder(table.Schema{{Name: "x", Kind: table.Numeric}, {Name: "y", Kind: table.Numeric}})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		linear.MustAppendRow(float64(i), float64(3*i+rng.Intn(50)))
	}
	cases := []struct {
		name  string
		tb    *table.Table
		where string
		q     query.Query
	}{
		{"cdr by start_hour", sorted, "start_hour>=22", query.Query{Agg: query.Avg, Column: "charge_cents", GroupBy: "plan"}},
		{"y predicted from x", linear.MustBuild(), "x>=3500", query.Query{Agg: query.Sum, Column: "y"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := tc.tb
			tol := table.UniformTolerances(tb, 0.01, 0)
			resolved, err := tol.Resolve(tb)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := WriteTable(&buf, tb, core.Options{Tolerances: tol}, SegmentOptions{SegmentRows: 1000}); err != nil {
				t.Fatal(err)
			}
			sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sr.NumSegments(); i++ {
				seg, err := sr.Segment(i)
				if err != nil {
					t.Fatal(err)
				}
				for c, z := range sr.Info(i).Zones {
					if tb.Attr(c).Kind != table.Numeric {
						continue
					}
					for r, v := range seg.Col(c).Floats {
						if v < z.Min || v > z.Max {
							t.Fatalf("segment %d row %d: %s = %g outside its zone [%g, %g]", i, r, tb.Attr(c).Name, v, z.Min, z.Max)
						}
					}
				}
			}
			full, err := sr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			diffs, err := table.MaxAbsDiff(tb, full)
			if err != nil {
				t.Fatal(err)
			}
			for c, d := range diffs {
				if tb.Attr(c).Kind == table.Numeric && d > resolved[c].Value {
					t.Errorf("%s differs by %g, the whole-table tolerance is %g", tb.Attr(c).Name, d, resolved[c].Value)
				}
			}
			q := tc.q
			if q.Where, err = query.ParsePredicate(tc.where, tb.Schema()); err != nil {
				t.Fatal(err)
			}
			res, qs, err := sr.Query(resolved, q)
			if err != nil {
				t.Fatal(err)
			}
			if qs.Pruned == 0 {
				t.Errorf("no segment pruned (stats %+v)", qs)
			}
			want, err := query.Run(full, resolved, q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, res, want)
		})
	}
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

// learnBody learns a model on tb and returns it with tb's codec body.
func learnBody(t *testing.T, tb *table.Table) (*core.Model, []byte) {
	t.Helper()
	m, err := core.Learn(context.Background(), tb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := m.Apply(context.Background(), &body, tb); err != nil {
		t.Fatal(err)
	}
	return m, body.Bytes()
}

// singleFrameArchive writes a one-segment archive with model m whose
// frame and footer row count are given verbatim, through the container's
// own framing, model-block and footer code, so tests can plant exactly
// one inconsistency.
func singleFrameArchive(t *testing.T, m *core.Model, tb *table.Table, frame []byte, rows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := codec.NewWriter(&buf)
	if err := cw.WriteSegment(frame, rows, codec.ComputeZones(tb, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Close(m.Block()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFramingGarbage (framing bugfix): a frame whose declared length
// exceeds its codec body must fail with FramingError instead of
// silently ignoring the trailing garbage.
func TestFramingGarbage(t *testing.T) {
	tb := datagen.CDR(200, 5)
	m, body := learnBody(t, tb)
	// The single frame is the valid codec body padded with trailing
	// garbage, all inside the declared length.
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	padded := append(append([]byte(nil), body...), garbage...)
	data := singleFrameArchive(t, m, tb, padded, tb.NumRows())

	_, err := ReadAll(bytes.NewReader(data))
	var fe *codec.FramingError
	if !errors.As(err, &fe) {
		t.Fatalf("ReadAll = %v, want FramingError", err)
	}
	if fe.Segment != 0 || fe.Declared != int64(len(padded)) || fe.Consumed != int64(len(body)) {
		t.Errorf("FramingError = %+v, want segment 0, declared %d, consumed %d",
			fe, len(padded), len(body))
	}
	// A correctly framed body still decodes.
	ok := singleFrameArchive(t, m, tb, body, tb.NumRows())
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
	m, body := learnBody(t, tb)
	data := singleFrameArchive(t, m, tb, body, tb.NumRows()+7)

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

// TestQueryErrorNamesArchiveSegment: a read error names the segment's
// index in the archive, not its position among the segments a query
// kept after pruning.
func TestQueryErrorNamesArchiveSegment(t *testing.T) {
	// Segments 0-1 hold v in [0,9], segments 2-3 hold v in [1000,1009].
	tb := prunableTable(t, 300)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 150}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	sr, err := OpenSegmented(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	pruned := query.Query{Agg: query.Count, Where: query.NumCmp("v", query.Gt, 500)}
	if _, qs, err := sr.Query(nil, pruned); err != nil || qs.Pruned != 2 {
		t.Fatalf("intact archive: stats %+v, err %v; want 2 segments pruned", qs, err)
	}
	// A bad row count in the last segment: position 1 among the
	// segments the pruned query keeps, index 3 in the archive.
	data[sr.Info(3).Offset] ^= 0xff
	for name, q := range map[string]query.Query{
		"pruned":    pruned,
		"full scan": {Agg: query.Count},
	} {
		_, _, err := sr.Query(nil, q)
		if err == nil || !strings.Contains(err.Error(), "decoding segment 3:") {
			t.Errorf("%s query: error %v, want one naming segment 3", name, err)
		}
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
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); !errors.Is(err, codec.ErrEmptyArchive) {
		t.Errorf("ReadAll = %v, want ErrEmptyArchive", err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != 0 || sr.TotalRows() != 0 {
		t.Errorf("empty archive reports %d segments / %d rows", sr.NumSegments(), sr.TotalRows())
	}
	if _, err := sr.ReadAll(); !errors.Is(err, codec.ErrEmptyArchive) {
		t.Errorf("SegReader.ReadAll = %v, want ErrEmptyArchive", err)
	}
	if _, _, err := sr.Query(nil, query.Query{Agg: query.Count}); !errors.Is(err, codec.ErrEmptyArchive) {
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

	if _, err := OpenSegmented(bytes.NewReader(data)); !errors.Is(err, codec.ErrNotArchive) {
		t.Errorf("OpenSegmented = %v, want ErrNotArchive", err)
	}
	if _, err := ReadAll(bytes.NewReader(data)); err == nil {
		t.Error("ReadAll decoded a block archive")
	}
}

// TestWriteTableEmpty: a zero-row table is written as one empty segment,
// core.Compress's bytes, and decodes to an empty table with its schema.
func TestWriteTableEmpty(t *testing.T) {
	schema := table.Schema{{Name: "x", Kind: table.Numeric}, {Name: "g", Kind: table.Categorical}}
	b, err := table.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf, single bytes.Buffer
	stats, err := WriteTable(&buf, empty, core.Options{}, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.Rows != 0 {
		t.Errorf("%d segments of %d rows, want one empty segment", stats.Segments, stats.Rows)
	}
	if stats.CompressedBytes != buf.Len() {
		t.Errorf("CompressedBytes = %d, archive is %d bytes", stats.CompressedBytes, buf.Len())
	}
	if _, err := core.Compress(&single, empty, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), single.Bytes()) {
		t.Errorf("WriteTable wrote %d bytes, core.Compress %d", buf.Len(), single.Len())
	}
	back, err := codec.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 || !slices.Equal(back.Schema(), schema) {
		t.Errorf("decoded %d rows with schema %v, want 0 rows with %v", back.NumRows(), back.Schema(), schema)
	}
}

// TestSegmentedCancel: a context cancelled before the write, after the
// first segment is applied, or before a query abandons the work with an
// error wrapping context.Canceled and leaves no goroutine behind.
func TestSegmentedCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	tb := datagen.CDR(3000, 13)
	seg := SegmentOptions{SegmentRows: 300, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WriteTableContext(ctx, io.Discard, tb, core.Options{}, seg); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled write: error %v, want context.Canceled", err)
	}

	// Mid-flight: cancel when the first segment's apply span ends, with
	// segments still running and queued.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	tr := obs.NewTrace("write")
	tr.OnSpanEnd(func(sp *obs.Span) {
		if sp.Name == core.SpanApply {
			cancel()
		}
	})
	if _, err := WriteTableContext(ctx, io.Discard, tb, core.Options{Trace: tr}, seg); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight write: error %v, want context.Canceled", err)
	}

	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, seg); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr.QuerySpan(ctx, nil, query.Query{Agg: query.Count}); !errors.Is(err, context.Canceled) {
		t.Errorf("query: error %v, want context.Canceled", err)
	}

	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertContains fails unless every group of got has a group of truth
// with its key whose value lies in the group's interval, and every group
// of truth appears in got.
func assertContains(t *testing.T, what string, got, truth *query.Result) {
	t.Helper()
	want := make(map[string]float64, len(truth.Groups))
	for _, g := range truth.Groups {
		want[g.Key] = g.Value
	}
	for _, g := range got.Groups {
		w, ok := want[g.Key]
		if !ok {
			continue
		}
		delete(want, g.Key)
		if !(w >= g.Lo && w <= g.Hi) {
			t.Errorf("%s: group %q: truth %g outside [%g, %g]", what, g.Key, w, g.Lo, g.Hi)
		}
	}
	for key, w := range want {
		t.Errorf("%s: no group %q for truth %g", what, key, w)
	}
}

// TestPerClassBudgetsBoundQueries: with a scalar categorical tolerance of
// 0 and a per-class budget of 0.3 on every class, compression may leave
// 30% of each class misclassified. Queries must widen their intervals by
// that budget: the archive records it, and query.Run resolves it from
// the caller's vector. With only the scalar 0, COUNT GROUP BY
// income_band on this table answered [1767, 1767] for the class "high",
// whose true count is 1766.
func TestPerClassBudgetsBoundQueries(t *testing.T) {
	tb := datagen.Census(8000, 1)
	tol := make(table.Tolerances, tb.NumCols())
	for c := range tol {
		if tb.Attr(c).Kind != table.Categorical {
			continue
		}
		tol[c].PerClass = make(map[string]float64)
		for _, v := range tb.Col(c).Dict {
			tol[c].PerClass[v] = 0.3
		}
	}
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{Tolerances: tol}, SegmentOptions{SegmentRows: 2000}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	band := tb.Schema().Index("income_band")
	if got := sr.Tolerances()[band].Value; got != 0.3 {
		t.Errorf("archive records income_band's tolerance as %g, want the per-class 0.3", got)
	}
	q := query.Query{Agg: query.Count, GroupBy: "income_band"}
	truth, err := query.Run(tb, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sr.Query(tol, q)
	if err != nil {
		t.Fatal(err)
	}
	assertContains(t, "SegReader.Query", res, truth)

	decoded, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if res, err = query.Run(decoded, tol, q); err != nil {
		t.Fatal(err)
	}
	assertContains(t, "query.Run", res, truth)
}
