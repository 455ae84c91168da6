package spartan

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// TestCompressionSanityAcrossDatasets asserts cross-cutting invariants on
// all four generators at once: the guarantee holds, compression never
// inflates the evaluation datasets, and every reported statistic is
// internally consistent.
func TestCompressionSanityAcrossDatasets(t *testing.T) {
	datasets := map[string]*Table{
		"census": datagen.Census(3000, 5),
		"corel":  datagen.Corel(3000, 5),
		"forest": datagen.ForestCover(3000, 5),
		"cdr":    datagen.CDR(3000, 5),
	}
	for name, tb := range datasets {
		t.Run(name, func(t *testing.T) {
			tol := UniformTolerances(tb, 0.01, 0)
			data, stats, err := compressBytes(tb, Options{Tolerances: tol})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Ratio >= 1 {
				t.Errorf("ratio %.3f >= 1", stats.Ratio)
			}
			if stats.CompressedBytes != len(data) {
				t.Errorf("stats bytes %d != stream %d", stats.CompressedBytes, len(data))
			}
			if got := stats.HeaderBytes + stats.ModelBytes + stats.TPrimeBytes; got != len(data) {
				t.Errorf("section sum %d != stream %d", got, len(data))
			}
			if len(stats.Predicted)+len(stats.Materialized) != tb.NumCols() {
				t.Error("attribute partition incomplete")
			}
			back, err := Decompress(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tb, back, tol); err != nil {
				t.Error(err)
			}
			// Decompression must be deterministic.
			back2, err := Decompress(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !table.Equal(back, back2) {
				t.Error("decompression not deterministic")
			}
		})
	}
}
