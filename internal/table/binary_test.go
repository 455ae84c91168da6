package table

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	tb := paperTable(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Values here are exactly representable as float32, so strict equality
	// holds.
	if !Equal(tb, got) {
		t.Error("binary round trip changed table")
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	tb := paperTable(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tb); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("ReadBinary accepted truncated stream")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("ReadBinary accepted bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("ReadBinary accepted empty stream")
	}
}

func TestRawSizeBytes(t *testing.T) {
	tb := paperTable(t)
	// 3 numeric * 4 bytes + 1 categorical (2 values -> 1 byte) = 13/row.
	if got, want := tb.RawBytesPerRow(), 13; got != want {
		t.Errorf("RawBytesPerRow = %d, want %d", got, want)
	}
	if got, want := tb.RawSizeBytes(), 13*8; got != want {
		t.Errorf("RawSizeBytes = %d, want %d", got, want)
	}
}

func TestCodeBytes(t *testing.T) {
	cases := []struct{ dom, want int }{
		{1, 1}, {2, 1}, {256, 1}, {257, 2}, {1 << 16, 2}, {1<<16 + 1, 3},
		{1 << 24, 3}, {1<<24 + 1, 4},
	}
	for _, c := range cases {
		if got := codeBytes(c.dom); got != c.want {
			t.Errorf("codeBytes(%d) = %d, want %d", c.dom, got, c.want)
		}
	}
}

// randomTable builds a random mixed table for property tests. Numeric
// values are quantized to float32-representable grid points so the binary
// format round-trips exactly.
func randomTable(rng *rand.Rand, rows int) *Table {
	schema := Schema{
		{Name: "n1", Kind: Numeric},
		{Name: "n2", Kind: Numeric},
		{Name: "c1", Kind: Categorical},
		{Name: "c2", Kind: Categorical},
	}
	b := MustBuilder(schema)
	cats := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < rows; i++ {
		b.MustAppendRow(
			float64(rng.Intn(2000))/4,
			float64(rng.Intn(100)),
			cats[rng.Intn(len(cats))],
			cats[rng.Intn(3)],
		)
	}
	return b.MustBuild()
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, rows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, int(rows)+1)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tb); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return Equal(tb, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSampleProperty(t *testing.T) {
	f := func(seed int64, rows uint8, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, int(rows)+1)
		n := int(k) % (tb.NumRows() + 2)
		s := tb.Sample(n, rng)
		if n >= tb.NumRows() {
			return s.NumRows() == tb.NumRows()
		}
		return s.NumRows() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSampleBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := randomTable(rng, 1000)
	s := tb.SampleBytes(100*tb.RawBytesPerRow(), rng)
	if s.NumRows() != 100 {
		t.Errorf("SampleBytes rows = %d, want 100", s.NumRows())
	}
	// Tiny budget still yields one row.
	s1 := tb.SampleBytes(1, rng)
	if s1.NumRows() != 1 {
		t.Errorf("SampleBytes(1) rows = %d, want 1", s1.NumRows())
	}
	// Huge budget returns the table itself.
	if s2 := tb.SampleBytes(1<<30, rng); s2 != tb {
		t.Error("SampleBytes with huge budget should return the original table")
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	tb := randomTable(rand.New(rand.NewSource(7)), 500)
	a := tb.Sample(50, rand.New(rand.NewSource(42)))
	b := tb.Sample(50, rand.New(rand.NewSource(42)))
	if !Equal(a, b) {
		t.Error("same seed produced different samples")
	}
}

func TestToleranceResolve(t *testing.T) {
	tb := paperTable(t)
	tol := UniformTolerances(tb, 0.01, 0)
	res, err := tol.Resolve(tb)
	if err != nil {
		t.Fatal(err)
	}
	// age range is 75-25=50, so 1% = 0.5
	if res[0].Value != 0.5 {
		t.Errorf("age tolerance = %g, want 0.5", res[0].Value)
	}
	if res[3].Value != 0 {
		t.Errorf("credit tolerance = %g, want 0", res[3].Value)
	}
	for _, r := range res {
		if r.Quantile {
			t.Error("Resolve left a quantile-form tolerance")
		}
	}
}

func TestToleranceResolveErrors(t *testing.T) {
	tb := paperTable(t)
	if _, err := (Tolerances{{Value: 1}}).Resolve(tb); err == nil {
		t.Error("Resolve accepted wrong-length vector")
	}
	bad := ZeroTolerances(tb)
	bad[0].Value = -1
	if _, err := bad.Resolve(tb); err == nil {
		t.Error("Resolve accepted negative tolerance")
	}
	bad2 := ZeroTolerances(tb)
	bad2[3].Value = 1.5
	if _, err := bad2.Resolve(tb); err == nil {
		t.Error("Resolve accepted categorical tolerance > 1")
	}
	bad3 := ZeroTolerances(tb)
	bad3[3].Quantile = true
	if _, err := bad3.Resolve(tb); err == nil {
		t.Error("Resolve accepted quantile tolerance on categorical attribute")
	}
}

// TestReadBinaryAllocations pins that ReadBinary allocates per call, not
// per record or cell: reading 32k rows of a table of float cells and one-,
// two- and three-byte codes, eight times the rows of the small read and
// several read blocks each, may add at most growthSlack allocations. Both
// tables have the same dictionaries, and the columns are sized up front
// (up to 2^16 rows), so a defer or a scratch value escaping in the block
// decoder's column loops adds one per record.
func TestReadBinaryAllocations(t *testing.T) {
	const small, large, growthSlack = 4000, 32000, 8
	schema := Schema{{Name: "x", Kind: Numeric}, {Name: "s", Kind: Categorical}, {Name: "m", Kind: Categorical}, {Name: "w", Kind: Categorical}}
	encode := func(rows int) []byte {
		cols := []*Column{{Kind: Numeric, Floats: make([]float64, rows)}}
		for _, size := range []int{5, 300, 1 << 17} {
			c := &Column{Kind: Categorical, Codes: make([]int32, rows), Dict: make([]string, size)}
			for i := range c.Dict {
				c.Dict[i] = strconv.Itoa(i)
			}
			for r := range c.Codes {
				c.Codes[r] = int32(r * 13 % size)
			}
			cols = append(cols, c)
		}
		for r := range rows {
			cols[0].Floats[r] = float64(r) / 8
		}
		tb, err := New(schema, cols)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tb); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(data []byte) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	a, b := read(encode(small)), read(encode(large))
	t.Logf("%d allocations at %d rows, %d at %d", a, small, b, large)
	if b > a+growthSlack {
		t.Errorf("ReadBinary allocates per record: %d allocations at %d rows, %d at %d, want ≤ %d",
			a, small, b, large, a+growthSlack)
	}
}
