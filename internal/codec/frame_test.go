package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// streams deflates c's T' cells with a new Huffman-only writer and a new
// level-4 writer.
func streams(t testing.TB, c *table.Column) (huffman, lz []byte) {
	t.Helper()
	cells := appendColumn(nil, c, new(numDict))
	deflate := func(level int) []byte {
		var out bytes.Buffer
		zw, err := flate.NewWriter(&out, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(cells); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	return deflate(flate.HuffmanOnly), deflate(4)
}

// oneColumnBody writes c as the one materialized column of a body and
// returns its frame, after checking that the body decodes to c exactly.
func oneColumnBody(t testing.TB, c *table.Column) []byte {
	t.Helper()
	tb, err := table.New(table.Schema{{Name: "a", Kind: c.Kind}}, []*table.Column{c})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewModelBlock(tb, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	bd, err := mb.EncodeBody(&body, tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := body.Bytes()[body.Len()-bd.TPrimeBytes:]
	_, n := binary.Uvarint(tp)
	frames, err := readFrameIndex(tp[n:], 1)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := mb.DecodeBody(body.Bytes(), DecodeLimits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Col(0)
	if !slices.Equal(got.Floats, c.Floats) || !slices.Equal(got.Codes, c.Codes) {
		t.Fatalf("%d rows did not decode to the column written", c.Len())
	}
	return frames[0].data
}

// TestFrameIsShorterStream pins the T' frame to the shorter of the
// column's Huffman-only and level-4 streams, on one column where each
// wins: CDR's start_hour, sorted, is a few long runs that LZ matching
// crushes, while random normal cells on a grid of halves leave it only
// short matches that cost more than the literals they replace.
func TestFrameIsShorterStream(t *testing.T) {
	const rows = 32000
	hours := slices.Clone(datagen.CDR(rows, 1).Col(0).Floats)
	slices.Sort(hours)
	rng := rand.New(rand.NewSource(1))
	gridded := make([]float64, rows)
	for r := range gridded {
		gridded[r] = math.Round(rng.NormFloat64()*6) / 2
	}
	for _, tc := range []struct {
		name      string
		vals      []float64
		lzShorter bool
	}{
		{"sorted start_hour", hours, true},
		{"random gridded", gridded, false},
	} {
		c := &table.Column{Kind: table.Numeric, Floats: tc.vals}
		huffman, lz := streams(t, c)
		t.Logf("%s: Huffman-only %d B, level 4 %d B", tc.name, len(huffman), len(lz))
		if got := len(lz) < len(huffman); got != tc.lzShorter {
			t.Fatalf("%s: level 4 shorter = %v, want %v", tc.name, got, tc.lzShorter)
		}
		want := huffman
		if len(lz) < len(huffman) {
			want = lz
		}
		if frame := oneColumnBody(t, c); !bytes.Equal(frame, want) {
			t.Errorf("%s: frame of %d B is not the shorter stream (Huffman-only %d B, level 4 %d B)",
				tc.name, len(frame), len(huffman), len(lz))
		}
	}
}

// TestDeflatersSurviveCollectionAllocs pins that the deflaters outlive a
// collection: once EncodeBody and EstimateBitsPerValue have run, two
// collections later one more call of each allocates under 256 KB. A
// deflater rebuilt after a collection allocates a flate writer of at
// least 0.7 MB.
func TestDeflatersSurviveCollectionAllocs(t *testing.T) {
	const ceiling = 256 << 10
	rng := rand.New(rand.NewSource(1))
	tb := testTable(rng, 4000)
	mats, models, tols := buildPlan(t, tb, 10)
	mb, err := NewModelBlock(tb, mats, models)
	if err != nil {
		t.Fatal(err)
	}
	outliers, err := scanOutliers(tb, mb.Models, tols)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	encodeBody := func() {
		body.Reset()
		if _, err := mb.EncodeBody(&body, tb, outliers); err != nil {
			t.Fatal(err)
		}
	}
	estimate := func() {
		if _, err := EstimateBitsPerValue(tb.Col(3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		call func()
	}{{"EncodeBody", encodeBody}, {"EstimateBitsPerValue", estimate}} {
		c.call()
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.call()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s allocated %d B after two collections", c.name, got)
		if got >= ceiling {
			t.Errorf("%s allocated %d B after two collections, want < %d", c.name, got, ceiling)
		}
	}
}

// FuzzEncodeBody writes a fuzz-derived column, numeric or categorical,
// of a fuzz-derived row count as a body's one materialized column. Its
// frame must be no longer than either stream over its cells, and the
// body must decode to the column exactly. Cell r is data[r mod
// len(data)]: a numeric cell is the byte as a signed quarter, and a
// categorical code spans two bytes' worth of a 512-entry dictionary.
func FuzzEncodeBody(f *testing.F) {
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{0, 1, 2, 3, 0, 1}, uint16(100), false)
	f.Add([]byte{7, 7, 7, 7, 200}, uint16(3000), true)
	f.Add(bytes.Repeat([]byte{0x10, 0x21, 0x32, 0x43, 0xf4, 0x05, 0x86, 0xc7}, 64), uint16(5000), false)
	dict := make([]string, 512)
	for i := range dict {
		dict[i] = strconv.Itoa(i)
	}
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, categorical bool) {
		n := int(rows)
		if len(data) == 0 {
			data = []byte{0}
		}
		c := &table.Column{Kind: table.Numeric, Floats: make([]float64, n)}
		if categorical {
			c = &table.Column{Kind: table.Categorical, Codes: make([]int32, n), Dict: dict}
		}
		for r := 0; r < n; r++ {
			b := data[r%len(data)]
			if categorical {
				c.Codes[r] = int32(b) | int32(b&1)<<8
			} else {
				c.Floats[r] = float64(int8(b)) / 4
			}
		}
		huffman, lz := streams(t, c)
		if frame := oneColumnBody(t, c); len(frame) > len(huffman) || len(frame) > len(lz) {
			t.Errorf("frame of %d B is longer than a stream (Huffman-only %d B, level 4 %d B)", len(frame), len(huffman), len(lz))
		}
	})
}
