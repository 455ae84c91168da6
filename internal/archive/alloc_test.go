package archive

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/table"
)

// TestDecodeAllocationsDoNotGrowWithRows holds decoding to the standard
// core's TestApplyAllocationsDoNotGrowWithRows sets for apply: reading a
// compressed table back, whole (core.Decompress) or through a query
// (SegReader.Query), must not heap-allocate per row or per value. The
// first 2k rows and all 32k rows are each compressed into one segment;
// 16× the rows may cost at most 4× the allocations. A scratch buffer
// escaping in a per-value read (each numeric outlier, say) puts the
// ratio near 16×.
func TestDecodeAllocationsDoNotGrowWithRows(t *testing.T) {
	const small, large, maxRatio = 2000, 32000, 4.0
	for _, ds := range []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
	} {
		t.Run(ds.name, func(t *testing.T) {
			tb := ds.gen(large, 1)
			head := make([]int, small)
			for i := range head {
				head[i] = i
			}
			first, err := tb.SelectRows(head)
			if err != nil {
				t.Fatal(err)
			}
			// AVG of the first numeric column over every row.
			q := query.Query{Agg: query.Avg}
			for i := 0; i < tb.NumCols() && q.Column == ""; i++ {
				if tb.Attr(i).Kind == table.Numeric {
					q.Column = tb.Attr(i).Name
				}
			}
			compress := func(part *table.Table) []byte {
				var buf bytes.Buffer
				if _, err := core.Compress(&buf, part, core.Options{Tolerances: table.UniformTolerances(part, 0.01, 0)}); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			type measured struct{ decompress, query float64 }
			allocs := func(data []byte) measured {
				return measured{
					decompress: testing.AllocsPerRun(2, func() {
						if _, err := core.Decompress(bytes.NewReader(data)); err != nil {
							t.Fatal(err)
						}
					}),
					query: testing.AllocsPerRun(2, func() {
						sr, err := OpenSegmented(bytes.NewReader(data))
						if err != nil {
							t.Fatal(err)
						}
						defer sr.Close()
						if _, _, err := sr.Query(nil, q); err != nil {
							t.Fatal(err)
						}
					}),
				}
			}
			a, b := allocs(compress(first)), allocs(compress(tb))
			for _, c := range []struct {
				name string
				a, b float64
			}{
				{"core.Decompress", a.decompress, b.decompress},
				{"SegReader.Query", a.query, b.query},
			} {
				t.Logf("%s allocs: %d rows %.0f, %d rows %.0f (%.2f×)", c.name, small, c.a, large, c.b, c.b/c.a)
				if c.b > maxRatio*c.a {
					t.Errorf("%s allocations grow with rows: %.0f at %d rows, %.0f at %d (%.2f×, want ≤ %g×)",
						c.name, c.a, small, c.b, large, c.b/c.a, maxRatio)
				}
			}
		})
	}
}

// TestDecodeAllocatesColumnsOnce pins that decoding builds each column
// once: a one-segment 32k-row CDR archive may allocate its decoded
// columns, the inflated T′ and a fixed slack, and the slack is smaller
// than the predicted columns, so allocating any predicted column a
// second time (a placeholder, or a copy) fails.
func TestDecodeAllocatesColumnsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented appends allocate a copy of each buffer they grow")
	}
	const rows = 32000
	tb := datagen.CDR(rows, 1)
	var buf bytes.Buffer
	st, err := core.Compress(&buf, tb, core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)})
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cr, err := codec.Open(bytes.NewReader(data), codec.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	// The body ends with T′'s gzip trailer, whose last four bytes
	// (ISIZE) are the inflated T′'s length.
	seg := cr.Info(0)
	tprime := uint64(binary.LittleEndian.Uint32(data[seg.Offset+seg.Length-4:]))
	var columns, predicted uint64
	for i := 0; i < tb.NumCols(); i++ {
		size := uint64(rows) * 8
		if tb.Attr(i).Kind == table.Categorical {
			size = rows * 4
		}
		columns += size
		if slices.Contains(st.Predicted, tb.Attr(i).Name) {
			predicted += size
		}
	}
	var allocated uint64
	for i := 0; i < 3; i++ { // the least of three runs: a GC mid-run allocates too
		delta := allocDelta(func() {
			if _, err := core.Decompress(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 || delta < allocated {
			allocated = delta
		}
	}
	// What else a decode allocates: the frame the reader copies (141 KB
	// here), gzip's inflater, the model block and the flattened trees.
	// 310 KB measured (linux/amd64, go1.24).
	const slack = 400 << 10
	if slack >= predicted {
		t.Fatalf("slack %d must stay under the predicted columns' %d bytes", slack, predicted)
	}
	t.Logf("allocated %d bytes: columns %d (predicted %d), inflated T′ %d, rest %d",
		allocated, columns, predicted, tprime, int64(allocated)-int64(columns+tprime))
	if allocated > columns+tprime+slack {
		t.Errorf("decode allocated %d bytes, want ≤ %d (columns) + %d (T′) + %d", allocated, columns, tprime, slack)
	}
}

// TestIngestAllocations pins what a segmented ingest allocates: the
// benchmark's ingest_cdr_segmented (32k CDR rows, 8k-row segments, 1%
// numeric tolerance) averaged over three WriteTable calls after a
// warm-up. About 11.6 MB measured (linux/amd64, go1.24); a fresh
// deflate compressor per sample column and per segment (about 1 MB each),
// a copy of every segment, or CaRT growth copying each node's rows and
// split pairs (about 17 MB) puts it past 14 MB.
func TestIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented appends allocate a copy of each buffer they grow")
	}
	const rows, segRows, runs, ceiling = 32000, 8000, 3, 14 << 20
	tb := datagen.CDR(rows, 1)
	opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}
	write := func() {
		if _, err := WriteTable(io.Discard, tb, opts, SegmentOptions{SegmentRows: segRows}); err != nil {
			t.Fatal(err)
		}
	}
	write()
	mean := allocDelta(func() {
		for i := 0; i < runs; i++ {
			write()
		}
	}) / runs
	t.Logf("WriteTable allocated %.1f MB per call", float64(mean)/(1<<20))
	if mean > ceiling {
		t.Errorf("WriteTable allocated %d bytes per call, want ≤ %d", mean, ceiling)
	}
}

// allocDelta runs f and reports how many bytes it allocated.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestScanQueryAllocatesReadColumnsOnly pins that a query decodes only
// the attributes it reads: AVG(charge_cents) WHERE duration_sec>60 GROUP
// BY plan over a 4-segment 32k-row CDR archive, the benchmark's scan,
// may allocate the columns of its closure (codec.Reader.Columns: the
// three it names and their predictors), the inflated T′ of every
// segment and a fixed slack, and that bound must stay under what the
// same query allocates over fully decoded segments. Storing an unread T′
// column or running an unread CaRT fails it.
func TestScanQueryAllocatesReadColumnsOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented appends allocate a copy of each buffer they grow")
	}
	const rows, segRows = 32000, 8000
	tb := datagen.CDR(rows, 1)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}, SegmentOptions{SegmentRows: segRows}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	sr, err := OpenSegmented(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	q := query.Query{Agg: query.Avg, Column: "charge_cents", Where: query.NumCmp("duration_sec", query.Gt, 60), GroupBy: "plan"}

	var columns, tprime uint64
	read := codec.Project(sr.Schema(), sr.Columns(q.Columns()))
	for _, a := range read {
		size := uint64(rows) * 8
		if a.Kind == table.Categorical {
			size = rows * 4
		}
		columns += size
	}
	for i := 0; i < sr.NumSegments(); i++ {
		// A body ends with T′'s gzip trailer, whose last four bytes
		// (ISIZE) are the inflated T′'s length.
		seg := sr.Info(i)
		tprime += uint64(binary.LittleEndian.Uint32(data[seg.Offset+seg.Length-4:]))
	}
	least := func(f func()) uint64 { // the least of three runs: a GC mid-run allocates too
		var m uint64
		for i := 0; i < 3; i++ {
			if d := allocDelta(f); i == 0 || d < m {
				m = d
			}
		}
		return m
	}
	projected := least(func() {
		if _, _, err := sr.Query(nil, q); err != nil {
			t.Fatal(err)
		}
	})
	full := least(func() {
		if _, err := fullQuery(sr, q); err != nil {
			t.Fatal(err)
		}
	})
	// What else the query allocates: the four frames the reader copies,
	// gzip's inflaters, the flattened tree of the one CaRT it runs and
	// the aggregated charge_cents values (about 740 KB of appends).
	// 1,364 KB measured (linux/amd64, go1.24); an unread categorical
	// column, the smallest, would add 128 KB.
	const slack = 1400 << 10
	t.Logf("query allocated %d bytes: columns %d (%v), inflated T′ %d, rest %d; over full decodes %d",
		projected, columns, read, tprime, int64(projected)-int64(columns+tprime), full)
	if bound := columns + tprime + slack; bound >= full {
		t.Fatalf("bound %d (columns + T′ + slack) must stay under the full decode's %d bytes", bound, full)
	}
	if projected > columns+tprime+slack {
		t.Errorf("query allocated %d bytes, want ≤ %d (columns) + %d (T′) + %d", projected, columns, tprime, slack)
	}
}
