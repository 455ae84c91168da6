package archive

import (
	"bytes"
	"testing"

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
