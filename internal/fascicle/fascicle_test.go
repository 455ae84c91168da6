package fascicle

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/floats"
	"repro/internal/table"
)

// paperTable reproduces the 8-tuple table of Figure 1(a).
func paperTable(t testing.TB) *table.Table {
	t.Helper()
	schema := table.Schema{
		{Name: "age", Kind: table.Numeric},
		{Name: "salary", Kind: table.Numeric},
		{Name: "assets", Kind: table.Numeric},
		{Name: "credit", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	rows := [][]any{
		{30.0, 90000.0, 200000.0, "good"},
		{50.0, 110000.0, 250000.0, "good"},
		{70.0, 35000.0, 125000.0, "poor"},
		{75.0, 15000.0, 100000.0, "poor"},
		{25.0, 50000.0, 75000.0, "good"},
		{35.0, 76000.0, 75000.0, "good"},
		{45.0, 100000.0, 175000.0, "poor"},
		{55.0, 80000.0, 150000.0, "good"},
	}
	for _, r := range rows {
		b.MustAppendRow(r...)
	}
	return b.MustBuild()
}

func paperWidths() []float64 { return []float64{2, 5000, 25000, 0} }

// TestPaperExample21 mirrors Example 2.1: with tolerances (2, 5000, 25000,
// 0) fascicles on (assets, credit) reduce the stored value count below the
// raw 8×4 = 32 values.
func TestPaperExample21(t *testing.T) {
	tb := paperTable(t)
	c, err := Cluster(tb, Params{K: 2, MinSize: 2, Widths: paperWidths()})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fascicles) == 0 {
		t.Fatal("no fascicles found on the paper's example")
	}
	if got := c.CompressedValueCount(tb); got >= 32 {
		t.Errorf("fascicles store %d values, want < 32", got)
	}
	// Every fascicle must satisfy the compactness semantics.
	assertCompact(t, tb, c, paperWidths())
}

func assertCompact(t *testing.T, tb *table.Table, c *Clustering, widths []float64) {
	t.Helper()
	for fi := range c.Fascicles {
		f := &c.Fascicles[fi]
		for j, attr := range f.CompactAttrs {
			col := tb.Col(attr)
			if col.Kind == table.Numeric {
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, r := range f.Rows {
					v := col.Floats[r]
					mn = math.Min(mn, v)
					mx = math.Max(mx, v)
				}
				if mx-mn > 2*widths[attr]+1e-9 {
					t.Errorf("fascicle %d attr %d range %g exceeds 2e=%g",
						fi, attr, mx-mn, 2*widths[attr])
				}
				rep := f.NumReps[j]
				for _, r := range f.Rows {
					if math.Abs(col.Floats[r]-rep) > widths[attr]+1e-9 {
						t.Errorf("fascicle %d attr %d rep %g is %g from member",
							fi, attr, rep, math.Abs(col.Floats[r]-rep))
					}
				}
			} else {
				for _, r := range f.Rows {
					if col.Codes[r] != f.CatReps[j] {
						t.Errorf("fascicle %d: categorical attr %d not constant", fi, attr)
					}
				}
			}
		}
	}
}

func TestClusterParamValidation(t *testing.T) {
	tb := paperTable(t)
	if _, err := Cluster(tb, Params{Widths: []float64{1}}); err == nil {
		t.Error("Cluster accepted wrong-length widths")
	}
	for _, w := range []float64{-1, math.NaN()} {
		if _, err := Cluster(tb, Params{Widths: []float64{2, w, 25000, 0}}); err == nil {
			t.Errorf("Cluster accepted width %g", w)
		}
	}
	// K larger than the column count clamps.
	c, err := Cluster(tb, Params{K: 99, MinSize: 2, Widths: paperWidths()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Fascicles {
		if len(c.Fascicles[i].CompactAttrs) > tb.NumCols() {
			t.Error("fascicle has more compact attrs than columns")
		}
	}
}

func TestClusterCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := clusteredTable(rng, 500)
	widths := []float64{1, 1, 0}
	c, err := Cluster(tb, Params{K: 2, Widths: widths})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, tb.NumRows())
	for i := range c.Fascicles {
		for _, r := range c.Fascicles[i].Rows {
			if seen[r] {
				t.Fatalf("row %d in two fascicles", r)
			}
			seen[r] = true
		}
	}
	for _, r := range c.Leftover {
		if seen[r] {
			t.Fatalf("leftover row %d also in a fascicle", r)
		}
		seen[r] = true
	}
	for r, s := range seen {
		if !s {
			t.Fatalf("row %d unaccounted for", r)
		}
	}
}

// clusteredTable draws rows from a few well-separated centers, ideal for
// fascicle detection.
func clusteredTable(rng *rand.Rand, n int) *table.Table {
	schema := table.Schema{
		{Name: "a", Kind: table.Numeric},
		{Name: "b", Kind: table.Numeric},
		{Name: "c", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	centers := [][2]float64{{10, 100}, {50, 200}, {90, 300}}
	cats := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		b.MustAppendRow(
			centers[k][0]+rng.Float64(),
			centers[k][1]+rng.Float64(),
			cats[k],
		)
	}
	return b.MustBuild()
}

func TestQuantizePreservesOrderAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := clusteredTable(rng, 400)
	widths := []float64{1, 1, 0}
	c, err := Cluster(tb, Params{K: 2, Widths: widths})
	if err != nil {
		t.Fatal(err)
	}
	q := quantize(c, tb)
	if q.NumRows() != tb.NumRows() {
		t.Fatal("Quantize changed row count")
	}
	diffs, err := table.MaxAbsDiff(tb, q)
	if err != nil {
		t.Fatal(err)
	}
	for a, d := range diffs {
		if d > widths[a]+1e-9 {
			t.Errorf("attr %d quantization error %g > width %g", a, d, widths[a])
		}
	}
	// Categorical column must be untouched.
	if !floats.SameBits(diffs[2], 0) {
		t.Error("categorical column changed by quantization")
	}
}

func TestQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed int64, wByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := clusteredTable(rng, 150)
		w := float64(wByte)/16 + 0.1
		widths := []float64{w, w, 0}
		c, err := Cluster(tb, Params{Widths: widths})
		if err != nil {
			return false
		}
		q := quantize(c, tb)
		diffs, err := table.MaxAbsDiff(tb, q)
		if err != nil {
			return false
		}
		return diffs[0] <= w+1e-9 && diffs[1] <= w+1e-9 && floats.SameBits(diffs[2], 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuantizeAtZeroWidthsKeepsCells checks that the fascicle baseline is
// lossless at zero widths: quantize(Cluster(t)) changes no cell, since a
// zero-width window holds only values equal by == (Within at tolerance
// 0). A window holding both -0 and +0 may give one of them the other's
// sign; no datagen table has such a pair.
func TestQuantizeAtZeroWidthsKeepsCells(t *testing.T) {
	for name, tb := range map[string]*table.Table{
		"cdr": datagen.CDR(4000, 1), "census": datagen.Census(4000, 1),
		"corel": datagen.Corel(4000, 1), "forest": datagen.ForestCover(4000, 1),
	} {
		c, err := Cluster(tb, Params{Widths: make([]float64, tb.NumCols())})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Fascicles) == 0 {
			t.Fatalf("%s: no fascicles at zero widths", name)
		}
		q := quantize(c, tb)
		for a := range tb.NumCols() {
			if tb.Attr(a).Kind != table.Numeric {
				continue
			}
			for r, v := range tb.Col(a).Floats {
				if got := q.Col(a).Floats[r]; !floats.Within(got, v, 0) {
					t.Fatalf("%s: %s row %d: %v quantized to %v at zero width", name, tb.Attr(a).Name, r, v, got)
				}
			}
		}
	}
}

// quantize returns a copy of t with every compact numeric value replaced
// by its fascicle's representative, in t's row order: the table a
// decompressed fascicle stream holds, up to row order. Categorical
// values never change, since their compactness requires equality, so
// the copy shares t's categorical columns.
func quantize(c *Clustering, t *table.Table) *table.Table {
	cols := make([]*table.Column, t.NumCols())
	for a := range cols {
		col := t.Col(a)
		if col.Kind == table.Numeric {
			col = &table.Column{Kind: table.Numeric, Floats: slices.Clone(col.Floats)}
		}
		cols[a] = col
	}
	for fi := range c.Fascicles {
		f := &c.Fascicles[fi]
		for j, attr := range f.CompactAttrs {
			if col := cols[attr]; col.Kind == table.Numeric {
				for _, r := range f.Rows {
					col.Floats[r] = f.NumReps[j]
				}
			}
		}
	}
	out, err := table.New(t.Schema(), cols)
	if err != nil {
		panic("fascicle: quantized copy of a valid table failed: " + err.Error())
	}
	return out
}

// rowStrings renders a table as a sorted multiset of row strings for
// order-insensitive comparison.
func rowStrings(t *table.Table) []string {
	out := make([]string, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		var sb strings.Builder
		for c := 0; c < t.NumCols(); c++ {
			if t.Attr(c).Kind == table.Numeric {
				sb.WriteString(strconv.FormatFloat(t.Float(r, c), 'g', 8, 64))
			} else {
				sb.WriteString(t.CatString(r, c))
			}
			sb.WriteByte('|')
		}
		out[r] = sb.String()
	}
	sort.Strings(out)
	return out
}

func TestCompressDecompressMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := clusteredTable(rng, 300)
	widths := []float64{1, 1, 0}
	p := Params{K: 2, Widths: widths}
	c, err := Cluster(tb, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, gz := range []bool{false, true} {
		data, err := c.Encode(tb, gz)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumRows() != tb.NumRows() {
			t.Fatalf("gz=%v: decompressed %d rows, want %d", gz, back.NumRows(), tb.NumRows())
		}
		// Decompressed rows (a multiset) must equal the quantized table's
		// rows, modulo float32 storage of non-compact numeric cells.
		want := rowStrings(quantize(c, tb))
		got := rowStrings(back)
		mismatches := 0
		for i := range want {
			if want[i] != got[i] {
				mismatches++
			}
		}
		// Values in these tables are small enough to be exact in float32.
		if mismatches != 0 {
			t.Errorf("gz=%v: %d/%d rows differ after round trip", gz, mismatches, len(want))
		}
	}
}

func TestCompressShrinksClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tb := clusteredTable(rng, 2000)
	data, err := Compress(tb, Params{K: 2, Widths: []float64{1, 1, 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if raw := tb.RawSizeBytes(); len(data) >= raw {
		t.Errorf("fascicle output %d B >= raw %d B on highly clustered data", len(data), raw)
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := clusteredTable(rng, 100)
	data, err := Compress(tb, Params{K: 2, Widths: []float64{1, 1, 0}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("Decompress accepted empty input")
	}
	if _, err := Decompress(data[:len(data)/2]); err == nil {
		t.Error("Decompress accepted truncated input")
	}
	bad := append([]byte(nil), data...)
	bad[2] ^= 0x55
	if _, err := Decompress(bad); err == nil {
		t.Error("Decompress accepted corrupted magic")
	}
}

// TestDecompressRejectsHugeCompactAttribute patches the first
// compact-attribute index of a valid stream to 2^63. The decoder must
// refuse it with an error; converting it to int first wraps it
// negative, past the column-count check, into a panicking index.
func TestDecompressRejectsHugeCompactAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := clusteredTable(rng, 100)
	c, err := Cluster(tb, Params{K: 2, Widths: []float64{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fascicles) == 0 || len(c.Fascicles[0].CompactAttrs) == 0 {
		t.Fatal("fixture has no fascicle with compact attributes")
	}
	data, err := c.Encode(tb, false)
	if err != nil {
		t.Fatal(err)
	}
	// The body before the first attribute index: schema, fascicle
	// count, the first fascicle's compact-attribute count.
	want := table.AppendSchema(nil, tb.Schema(), tb.Dicts())
	want = binary.AppendUvarint(want, uint64(len(c.Fascicles)))
	want = binary.AppendUvarint(want, uint64(len(c.Fascicles[0].CompactAttrs)))
	off := len(fascicleMagic) + 1 + len(want)
	if !bytes.Equal(data[len(fascicleMagic)+1:off], want) ||
		data[off] != byte(c.Fascicles[0].CompactAttrs[0]) {
		t.Fatal("stream layout does not match the encoder's")
	}
	hostile := append([]byte(nil), data[:off]...)
	hostile = binary.AppendUvarint(hostile, 1<<63)
	hostile = append(hostile, data[off+1:]...)
	if _, err := Decompress(hostile); err == nil {
		t.Error("Decompress accepted a compact attribute index of 2^63")
	}
}

func TestMaxFasciclesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb := clusteredTable(rng, 300)
	c, err := Cluster(tb, Params{K: 2, MaxFascicles: 1, Widths: []float64{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fascicles) > 1 {
		t.Errorf("got %d fascicles, cap was 1", len(c.Fascicles))
	}
}

func TestMinSizeRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tb := clusteredTable(rng, 300)
	c, err := Cluster(tb, Params{K: 2, MinSize: 50, Widths: []float64{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Fascicles {
		if len(c.Fascicles[i].Rows) < 50 {
			t.Errorf("fascicle %d has %d rows, MinSize 50", i, len(c.Fascicles[i].Rows))
		}
	}
}

// TestParamsDefaults: the zero Params resolve to the paper's fascicle
// budget P = 500 and minimum size m = max(2, 0.01% of rows) (§4.1).
func TestParamsDefaults(t *testing.T) {
	for _, tc := range []struct{ rows, minSize int }{{100, 2}, {29999, 2}, {35000, 3}} {
		tb, err := table.New(table.Schema{{Name: "x", Kind: table.Numeric}},
			[]*table.Column{{Kind: table.Numeric, Floats: make([]float64, tc.rows)}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Params{Widths: []float64{0}}.withDefaults(tb)
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxFascicles != 500 {
			t.Errorf("%d rows: MaxFascicles default = %d, want 500", tc.rows, p.MaxFascicles)
		}
		if p.MinSize != tc.minSize {
			t.Errorf("%d rows: MinSize default = %d, want %d", tc.rows, p.MinSize, tc.minSize)
		}
	}
}

func TestColIndexRangeQueries(t *testing.T) {
	tb := paperTable(t)
	idx := buildIndex(tb)
	// Salary column: values 15k..110k.
	from, to := valueWindow(tb.Col(1).Floats, idx[1].sortedRows, 50000, 90000)
	if to-from != 4 { // 50,76,80,90 (k)
		t.Errorf("window size = %d, want 4", to-from)
	}
	rows := slices.Clone(idx[1].sortedRows[from:to])
	slices.Sort(rows)
	if want := []uint32{0, 4, 5, 7}; !slices.Equal(rows, want) {
		t.Errorf("window rows = %v, want %v", rows, want)
	}
	// Categorical buckets.
	good := tb.Col(3).Codes[0]
	bucket := idx[3].sortedRows[idx[3].codeStart[good]:idx[3].codeStart[good+1]]
	if want := []uint32{0, 1, 4, 5, 7}; !slices.Equal(bucket, want) {
		t.Errorf("bucket = %v, want %v", bucket, want)
	}
}
