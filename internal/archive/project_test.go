package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/table"
)

// TestQueryDecodesOnlyReadColumns runs, over CDR, census, corel and
// forest archives (lossless and 1%, one and four segments), a query per
// attribute in WHERE, per numeric attribute as the AVG column, per
// categorical attribute as GROUP BY, a bare COUNT and a query on an
// unknown column. Each answer, decoded from only the attributes the query
// reads and their predictors, must equal group by group what
// query.RunSegments answers over the fully decoded kept segments under
// the recorded tolerances, and QueryStats.Columns must count exactly that
// closure.
func TestQueryDecodesOnlyReadColumns(t *testing.T) {
	const rows = 800
	for _, ds := range []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	} {
		tb := ds.gen(rows, 1)
		queries := readQueries(tb)
		for _, tol := range []float64{0, 0.01} {
			for _, nseg := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/tol=%g/segments=%d", ds.name, tol, nseg), func(t *testing.T) {
					opts := core.Options{Tolerances: table.UniformTolerances(tb, tol, tol)}
					var buf bytes.Buffer
					if _, err := WriteTable(&buf, tb, opts, SegmentOptions{SegmentRows: rows / nseg}); err != nil {
						t.Fatal(err)
					}
					m, err := core.Learn(context.Background(), tb, opts)
					if err != nil {
						t.Fatal(err)
					}
					predictors := map[int][]int{}
					for _, tree := range m.Block().Models {
						predictors[tree.Target] = tree.UsedPredictors()
					}
					sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					defer sr.Close()
					projected := 0
					for _, q := range queries {
						got, qs, gotErr := sr.Query(nil, q)
						want, wantErr := fullQuery(sr, q)
						desc := describe(q)
						if gotErr != nil || wantErr != nil {
							if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
								t.Errorf("%s: projected error %v, full-decode error %v", desc, gotErr, wantErr)
							}
							continue
						}
						if d := resultDiff(got, want); d != "" {
							t.Errorf("%s: %s", desc, d)
						}
						if w := closureSize(tb.Schema(), q.Columns(), predictors); qs.Columns != w {
							t.Errorf("%s: %d columns decoded, want %d", desc, qs.Columns, w)
						}
						if qs.Columns < tb.NumCols() {
							projected++
						}
					}
					if projected == 0 {
						t.Error("no query decoded fewer than every attribute")
					}
				})
			}
		}
	}
}

// fullQuery answers q as SegReader.Query would with no projection:
// query.RunSegments over the fully decoded kept segments, under the
// recorded tolerances.
func fullQuery(sr *SegReader, q query.Query) (*query.Result, error) {
	if sr.NumSegments() == 0 {
		return nil, codec.ErrEmptyArchive
	}
	kept, scope, _ := sr.prune(sr.Tolerances(), q)
	ts, err := sr.keptTables(context.Background(), kept, nil)
	if err != nil {
		return nil, err
	}
	return query.RunSegments(ts, sr.Tolerances(), q, scope)
}

// readQueries is one query per attribute in WHERE (a COUNT against the
// value of the middle row), per numeric attribute as the AVG column, per
// categorical attribute as GROUP BY, a bare COUNT and an AVG of an
// unknown column.
func readQueries(tb *table.Table) []query.Query {
	mid := tb.NumRows() / 2
	var qs []query.Query
	for i, a := range tb.Schema() {
		col := tb.Col(i)
		if a.Kind == table.Numeric {
			qs = append(qs,
				query.Query{Agg: query.Count, Where: query.NumCmp(a.Name, query.Gt, col.Floats[mid])},
				query.Query{Agg: query.Avg, Column: a.Name})
			continue
		}
		qs = append(qs,
			query.Query{Agg: query.Count, Where: query.CatEq(a.Name, col.Dict[col.Codes[mid]])},
			query.Query{Agg: query.Count, GroupBy: a.Name})
	}
	return append(qs, query.Query{Agg: query.Count}, query.Query{Agg: query.Avg, Column: "no_such_column"})
}

// closureSize counts the attributes a read of names decodes: the named
// ones and the predictors of the predicted ones among them, attribute 0
// when none is named, every attribute when a name is unknown.
func closureSize(schema table.Schema, names []string, predictors map[int][]int) int {
	set := map[int]bool{}
	for _, name := range names {
		i := schema.Index(name)
		if i < 0 {
			return len(schema)
		}
		set[i] = true
	}
	if len(names) == 0 {
		set[0] = true
	}
	for a := range set {
		for _, p := range predictors[a] {
			set[p] = true
		}
	}
	return len(set)
}

// resultDiff describes the first difference between two results, or
// returns "" when every group has the same key, counts and float bits.
func resultDiff(got, want *query.Result) string {
	if len(got.Groups) != len(want.Groups) {
		return fmt.Sprintf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.Key != w.Key || g.Rows != w.Rows || g.UncertainRows != w.UncertainRows ||
			!same(g.Value, w.Value) || !same(g.Lo, w.Lo) || !same(g.Hi, w.Hi) {
			return fmt.Sprintf("group %d: %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// describe names a query for an error message.
func describe(q query.Query) string {
	return fmt.Sprintf("%v(%s) reading %q", q.Agg, q.Column, q.Columns())
}

// TestProjectionMatchesFullDecode reads CDR, census, corel and forest
// archives (lossless and 1%, one and four segments) under every
// one-attribute projection (codec.Reader.Columns). Every column a
// projection decodes must equal the same column of a full decode, bit
// for bit. Then, for each materialized attribute, one byte in the middle
// of its T′ frame in the last segment is flipped: every projection,
// those that do not inflate the frame included, and the full decode must
// refuse the archive with the frame's checksum error.
func TestProjectionMatchesFullDecode(t *testing.T) {
	const rows = 800
	for _, ds := range []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	} {
		tb := ds.gen(rows, 1)
		for _, tol := range []float64{0, 0.01} {
			for _, nseg := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/tol=%g/segments=%d", ds.name, tol, nseg), func(t *testing.T) {
					opts := core.Options{Tolerances: table.UniformTolerances(tb, tol, tol)}
					var buf bytes.Buffer
					if _, err := WriteTable(&buf, tb, opts, SegmentOptions{SegmentRows: rows / nseg}); err != nil {
						t.Fatal(err)
					}
					m, err := core.Learn(context.Background(), tb, opts)
					if err != nil {
						t.Fatal(err)
					}
					data := buf.Bytes()
					cr, err := codec.Open(bytes.NewReader(data), codec.DecodeLimits{})
					if err != nil {
						t.Fatal(err)
					}
					idx := make([]int, cr.NumSegments())
					for i := range idx {
						idx[i] = i
					}
					full, err := cr.ReadSegments(context.Background(), idx, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, a := range tb.Schema() {
						cols := cr.Columns([]string{a.Name})
						got, err := cr.ReadSegments(context.Background(), idx, cols)
						if err != nil {
							t.Fatalf("projection onto %s: %v", a.Name, err)
						}
						for s, seg := range got {
							for c := 0; c < seg.NumCols(); c++ {
								name := seg.Attr(c).Name
								if !sameColumn(seg.Col(c), full[s].Col(full[s].Schema().Index(name))) {
									t.Errorf("projection onto %s, segment %d: column %s differs from the full decode", a.Name, s, name)
								}
							}
						}
					}

					last := cr.Info(cr.NumSegments() - 1)
					frames := tprimeFrames(t, data[last.Offset:last.Offset+last.Length], len(m.Block().Materialized))
					for i, a := range m.Block().Materialized {
						bad := bytes.Clone(data)
						bad[last.Offset+int64(frames[i][0]+frames[i][1]/2)] ^= 0x5a
						badCR, err := codec.Open(bytes.NewReader(bad), codec.DecodeLimits{})
						if err != nil {
							t.Fatal(err)
						}
						want := fmt.Sprintf("T' frame %d checksum mismatch", i)
						sets := [][]bool{nil}
						for _, b := range tb.Schema() {
							sets = append(sets, badCR.Columns([]string{b.Name}))
						}
						for _, cols := range sets {
							if _, err := badCR.ReadSegments(context.Background(), idx, cols); err == nil || !strings.Contains(err.Error(), want) {
								t.Errorf("frame of %s flipped, projection %v: error %v, want %q", tb.Attr(a).Name, cols, err, want)
							}
						}
					}
				})
			}
		}
	}
}

// sameColumn reports whether two columns hold the same cells, float
// bits included.
func sameColumn(a, b *table.Column) bool {
	if a.Kind != b.Kind || !slices.Equal(a.Codes, b.Codes) || len(a.Floats) != len(b.Floats) {
		return false
	}
	for r, v := range a.Floats {
		if math.Float64bits(v) != math.Float64bits(b.Floats[r]) {
			return false
		}
	}
	return true
}

// tprimeFrames returns the offset in body and the length of each of the
// nmat T′ frames of a body (see docs/FORMAT.md): the row count, the
// checked outliers section, T′'s length, then the frame index, one
// (length, inflated length, CRC-32) entry per frame, and the frames.
func tprimeFrames(t *testing.T, body []byte, nmat int) [][2]int {
	t.Helper()
	off := 0
	uvarint := func() int {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at body offset %d", off)
		}
		off += n
		return int(v)
	}
	uvarint() // nrows
	outliers := uvarint()
	off += 4 + outliers
	uvarint() // T′ length
	lens := make([]int, nmat)
	for i := range lens {
		lens[i] = uvarint()
		uvarint() // inflated length
		off += 4  // CRC-32
	}
	frames := make([][2]int, nmat)
	for i, n := range lens {
		frames[i] = [2]int{off, n}
		off += n
	}
	if off != len(body) {
		t.Fatalf("frames end at %d of a %d-byte body", off, len(body))
	}
	return frames
}
