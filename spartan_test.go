package spartan

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/table"
)

// compressBytes compresses tb as one segment into a fresh byte slice.
func compressBytes(tb *Table, opts Options) ([]byte, *ArchiveStats, error) {
	var buf bytes.Buffer
	stats, err := Compress(context.Background(), &buf, tb, opts, SegmentOptions{})
	return buf.Bytes(), stats, err
}

func TestCompressDecompressCDR(t *testing.T) {
	tb := datagen.CDR(3000, 1)
	tol := UniformTolerances(tb, 0.01, 0)
	data, stats, err := compressBytes(tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tb, back, tol); err != nil {
		t.Fatal(err)
	}
	if stats.Ratio >= 1 {
		t.Errorf("ratio %.3f, expected < 1 on dependent CDR data", stats.Ratio)
	}
	if len(stats.Predicted) == 0 {
		t.Error("no attributes predicted on a table with functional dependencies")
	}
	if stats.CompressedBytes != len(data) {
		t.Errorf("stats bytes %d != stream %d", stats.CompressedBytes, len(data))
	}
}

func TestLosslessMode(t *testing.T) {
	tb := datagen.CDR(1500, 2)
	data, _, err := compressBytes(tb, Options{}) // nil tolerances = lossless
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("lossless round trip changed the table")
	}
	if err := Verify(tb, back, nil); err != nil {
		t.Error(err)
	}
}

func TestAllSelectionStrategies(t *testing.T) {
	tb := datagen.Census(4000, 3)
	tol := UniformTolerances(tb, 0.01, 0)
	for _, sel := range []SelectionStrategy{SelectWMISParents, SelectWMISMarkov, SelectGreedy} {
		data, stats, err := compressBytes(tb, Options{Tolerances: tol, Selection: sel})
		if err != nil {
			t.Fatalf("%v: %v", sel, err)
		}
		back, err := Decompress(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%v: %v", sel, err)
		}
		if err := Verify(tb, back, tol); err != nil {
			t.Errorf("%v: %v", sel, err)
		}
		if stats.Ratio >= 1 {
			t.Errorf("%v: ratio %.3f >= 1", sel, stats.Ratio)
		}
	}
}

func TestErrorBoundProperty(t *testing.T) {
	f := func(seed int64, tolByte uint8) bool {
		n := 800
		tb := datagen.CDR(n, seed)
		frac := float64(tolByte%10)/100 + 0.001 // 0.1%..9.1%
		tol := UniformTolerances(tb, frac, 0)
		data, _, err := compressBytes(tb, Options{Tolerances: tol, Seed: seed + 1})
		if err != nil {
			return false
		}
		back, err := Decompress(bytes.NewReader(data))
		if err != nil {
			return false
		}
		return Verify(tb, back, tol) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCategoricalToleranceRespected(t *testing.T) {
	tb := datagen.Census(3000, 5)
	tol := UniformTolerances(tb, 0.02, 0.05) // 5% categorical budget
	data, _, err := compressBytes(tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tb, back, tol); err != nil {
		t.Error(err)
	}
}

func TestRowAggregationAblation(t *testing.T) {
	tb := datagen.Corel(4000, 6)
	tol := UniformTolerances(tb, 0.05, 0)
	withRA, statsRA, err := compressBytes(tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	withoutRA, _, err := compressBytes(tb, Options{Tolerances: tol, DisableRowAggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both must round trip within bounds.
	for _, data := range [][]byte{withRA, withoutRA} {
		back, err := Decompress(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(tb, back, tol); err != nil {
			t.Fatal(err)
		}
	}
	if statsRA.Fascicles == 0 {
		t.Log("row aggregation found no fascicles on Corel (acceptable but unexpected)")
	}
}

func TestDeterministicOutput(t *testing.T) {
	tb := datagen.CDR(1000, 7)
	tol := UniformTolerances(tb, 0.01, 0)
	a, _, err := compressBytes(tb, Options{Tolerances: tol, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := compressBytes(tb, Options{Tolerances: tol, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different compressed streams")
	}
}

func TestCompressValidation(t *testing.T) {
	if _, err := Compress(context.Background(), &bytes.Buffer{}, nil, Options{}, SegmentOptions{}); err == nil {
		t.Error("Compress accepted nil table")
	}
	tb := datagen.CDR(100, 8)
	bad := Tolerances{{Value: -1}}
	if _, _, err := compressBytes(tb, Options{Tolerances: bad}); err == nil {
		t.Error("Compress accepted wrong-length/negative tolerances")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	tb := datagen.CDR(200, 9)
	mutated := tb.Clone()
	mutated.Col(1).Floats[0] += 1e6
	if err := Verify(tb, mutated, UniformTolerances(tb, 0.01, 0)); err == nil {
		t.Error("Verify missed a gross numeric violation")
	}
	if err := Verify(tb, tb.Clone(), nil); err != nil {
		t.Errorf("Verify rejected identical tables: %v", err)
	}
}

func TestStatsBreakdownConsistent(t *testing.T) {
	tb := datagen.CDR(2000, 10)
	tol := UniformTolerances(tb, 0.01, 0)
	data, stats, err := compressBytes(tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.HeaderBytes + stats.ModelBytes + stats.TPrimeBytes; got != len(data) {
		t.Errorf("breakdown %d != stream %d", got, len(data))
	}
	if len(stats.Predicted)+len(stats.Materialized) != tb.NumCols() {
		t.Error("attribute partition incomplete")
	}
	if stats.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
}

func TestSmallSampleStillGuarantees(t *testing.T) {
	// A tiny 2 KB sample gives poor models but the outlier pass must keep
	// the guarantee intact.
	tb := datagen.Census(5000, 11)
	tol := UniformTolerances(tb, 0.01, 0)
	data, _, err := compressBytes(tb, Options{Tolerances: tol, SampleBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tb, back, tol); err != nil {
		t.Error(err)
	}
}

func TestSingleColumnTable(t *testing.T) {
	b := table.MustBuilder(Schema{{Name: "only", Kind: Numeric}})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		b.MustAppendRow(float64(rng.Intn(10)))
	}
	tb := b.MustBuild()
	data, stats, err := compressBytes(tb, Options{Tolerances: UniformTolerances(tb, 0.05, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Predicted) != 0 {
		t.Error("single column cannot be predicted")
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tb, back, UniformTolerances(tb, 0.05, 0)); err != nil {
		t.Error(err)
	}
}

func TestConstantColumns(t *testing.T) {
	b := table.MustBuilder(Schema{
		{Name: "const_num", Kind: Numeric},
		{Name: "const_cat", Kind: Categorical},
		{Name: "varying", Kind: Numeric},
	})
	for i := 0; i < 200; i++ {
		b.MustAppendRow(7.0, "same", float64(i%10))
	}
	tb := b.MustBuild()
	data, _, err := compressBytes(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("constant-column table corrupted")
	}
}

func TestSingleRowTable(t *testing.T) {
	b := table.MustBuilder(Schema{
		{Name: "a", Kind: Numeric},
		{Name: "b", Kind: Categorical},
	})
	b.MustAppendRow(1.5, "x")
	tb := b.MustBuild()
	data, _, err := compressBytes(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("single-row table corrupted")
	}
}

func TestSelectionStrategyString(t *testing.T) {
	if SelectGreedy.String() != "Greedy" ||
		SelectWMISParents.String() != "WMIS(Parent)" ||
		SelectWMISMarkov.String() != "WMIS(Markov)" {
		t.Error("strategy names do not match Table 1 of the paper")
	}
}
