package archive

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"runtime/debug"
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
// columns and a fixed slack, and the slack is smaller than the predicted
// columns, so allocating any predicted column a second time (a
// placeholder, or a copy) fails. The frame and the inflated T′ come from
// codec's read pools once they are warm.
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
	allocated := steadyAlloc(func() {
		if _, err := core.Decompress(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	// What else a decode allocates: the model block, the T' frame index,
	// the outliers and the flattened trees. 97 KB measured (linux/amd64,
	// go1.24).
	const slack = 128 << 10
	if slack >= predicted {
		t.Fatalf("slack %d must stay under the predicted columns' %d bytes", slack, predicted)
	}
	t.Logf("allocated %d bytes: columns %d (predicted %d), rest %d",
		allocated, columns, predicted, int64(allocated)-int64(columns))
	if allocated > columns+slack {
		t.Errorf("decode allocated %d bytes, want ≤ %d (columns) + %d", allocated, columns, slack)
	}
}

// TestIngestAllocations pins what a segmented ingest allocates: the
// benchmark's ingest_cdr_segmented (32k CDR rows, 8k-row segments, 1%
// numeric tolerance) averaged over three WriteTable calls after a
// warm-up. About 2.6 MB measured at GOMAXPROCS 1, 2.6–2.8 MB at 2 and
// 2.9–3.5 MB at 4 to 16 (linux/amd64, go1.24). The codec's deflaters
// come from free lists that outlive the collection allocDelta starts
// with. A deflater rebuilt per sample column or per segment (0.7–1.2 MB
// of flate state for each writer), a copy of every segment, or CaRT
// growth copying each node's rows and split pairs (about 17 MB) puts it
// past 4 MB. Pooling the deflaters in sync.Pools, which a collection
// empties, measured 3.4 MB at 1 P, 4.6 MB at 2 and 5.8 MB at 4.
func TestIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented appends allocate a copy of each buffer they grow")
	}
	const rows, segRows, runs, ceiling = 32000, 8000, 3, 4 << 20
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

// steadyAlloc reports what f allocates once codec's read pools are warm:
// it runs f once, then takes the least of three runs on one P with the
// collector held off. A sync.Pool keeps its buffers through the one
// collection allocDelta starts, but not through a second one mid-run,
// and after a collection a P finds only its own private buffer.
func steadyAlloc(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var least uint64
	for i := 0; i < 3; i++ {
		if d := allocDelta(f); i == 0 || d < least {
			least = d
		}
	}
	return least
}

// TestScanQueryAllocatesReadColumnsOnly pins that a query decodes only
// the attributes it reads: AVG(charge_cents) WHERE duration_sec>60 GROUP
// BY plan over a 4-segment 32k-row CDR archive, the benchmark's scan,
// may allocate the columns of its closure (codec.Reader.Columns: the
// three it names and their predictors) and a fixed slack, and that bound
// must stay under what the same query allocates over fully decoded
// segments. Storing an unread T′ column, running an unread CaRT or
// keeping every aggregated value fails it. The frames and the inflated
// T′ come from codec's read pools once they are warm.
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
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	q := query.Query{Agg: query.Avg, Column: "charge_cents", Where: query.NumCmp("duration_sec", query.Gt, 60), GroupBy: "plan"}

	var columns uint64
	read := codec.Project(sr.Schema(), sr.Columns(q.Columns()))
	for _, a := range read {
		size := uint64(rows) * 8
		if a.Kind == table.Categorical {
			size = rows * 4
		}
		columns += size
	}
	projected := steadyAlloc(func() {
		if _, _, err := sr.Query(nil, q); err != nil {
			t.Fatal(err)
		}
	})
	full := steadyAlloc(func() {
		if _, err := fullQuery(sr, q); err != nil {
			t.Fatal(err)
		}
	})
	// What else the query allocates: the uncertain charge_cents values
	// and the match verdicts, the T' frame indexes, the outliers and the
	// flattened tree of the one CaRT it runs. 150 KB measured
	// (linux/amd64, go1.24); an unread categorical column, the smallest,
	// would add 128 KB.
	const slack = 192 << 10
	t.Logf("query allocated %d bytes: columns %d (%v), rest %d; over full decodes %d",
		projected, columns, read, int64(projected)-int64(columns), full)
	if bound := columns + slack; bound >= full {
		t.Fatalf("bound %d (columns + slack) must stay under the full decode's %d bytes", bound, full)
	}
	if projected > columns+slack {
		t.Errorf("query allocated %d bytes, want ≤ %d (columns) + %d", projected, columns, slack)
	}
}

// TestModelEncodeAllocations pins what writing a many-model archive
// allocates beyond the bytes it writes, on 2k rows learned at 1%:
// codec.Writer.Close (the model block and footer) and one Model.Apply
// (the snap, the outlier scan and the body), each the least of three
// warm runs on one P. Forest has 22 models and CDR 4. Every section is
// appended to one byte slice, and the measured excess is 6.2 KiB (CDR)
// and 9.5 KiB (forest) for Close, 3.9 KiB and 163 KiB for Apply
// (linux/amd64, go1.24). A 4 KiB bufio.Writer per model and per
// section, as the sections were once written, measured 30 KiB and 105
// KiB for Close, 20 KiB and 240 KiB for Apply.
func TestModelEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented appends allocate a copy of each buffer they grow")
	}
	ctx := context.Background()
	for _, ds := range []struct {
		name                   string
		gen                    func(int, int64) *table.Table
		closeSlack, applySlack uint64
	}{
		{"cdr", datagen.CDR, 16 << 10, 12 << 10},
		{"forest", datagen.ForestCover, 16 << 10, 208 << 10},
	} {
		t.Run(ds.name, func(t *testing.T) {
			tb := ds.gen(2000, 1)
			m, err := core.Learn(ctx, tb, core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)})
			if err != nil {
				t.Fatal(err)
			}
			var size int64
			closeBytes := steadyAlloc(func() {
				cw := codec.NewWriter(io.Discard)
				if _, err := cw.Close(m.Block()); err != nil {
					t.Fatal(err)
				}
				size = cw.Size()
			})
			var body int
			applyBytes := steadyAlloc(func() {
				st, err := m.Apply(ctx, io.Discard, tb)
				if err != nil {
					t.Fatal(err)
				}
				body = st.CompressedBytes
			})
			t.Logf("%d models: Close %d B for %d written, Apply %d B for %d written",
				len(m.Block().Models), closeBytes, size, applyBytes, body)
			if extra := closeBytes - min(closeBytes, uint64(size)); extra > ds.closeSlack {
				t.Errorf("Close allocated %d bytes beyond its %d written, want ≤ %d", extra, size, ds.closeSlack)
			}
			if extra := applyBytes - min(applyBytes, uint64(body)); extra > ds.applySlack {
				t.Errorf("Apply allocated %d bytes beyond its %d written, want ≤ %d", extra, body, ds.applySlack)
			}
		})
	}
}
