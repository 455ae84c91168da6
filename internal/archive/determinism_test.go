package archive

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// TestDoubleCompressByteIdentity: compressing the same table twice must
// produce byte-identical archives — zone maps, dictionaries, sampling
// seeds and footer included. Any wall-clock, shared-rand or map-order
// dependence in the encode path shows up as a diff between the runs.
// Runs with parallel segment compression so goroutine completion order
// is exercised too (meaningful under -race).
func TestDoubleCompressByteIdentity(t *testing.T) {
	tb := datagen.CDR(3000, 7)
	compress := func() []byte {
		var buf bytes.Buffer
		if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 400, Workers: 4}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := compress()
	second := compress()
	if !bytes.Equal(first, second) {
		i := 0
		for i < len(first) && i < len(second) && first[i] == second[i] {
			i++
		}
		t.Fatalf("double compress diverges: %d vs %d bytes, first difference at offset %d",
			len(first), len(second), i)
	}

	// The divergence check must also hold for the pruning metadata the
	// query planner trusts: identical bytes imply identical footers, but
	// decode one to make sure the archive round-trips at all.
	sr, err := OpenSegmented(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if got := sr.NumSegments(); got != 8 {
		t.Fatalf("NumSegments = %d, want 8", got)
	}
}

// TestCompressIsOneSegmentArchive: core.Compress writes exactly the
// bytes of a WriteTable archive whose one segment holds every row,
// lossless and lossy.
func TestCompressIsOneSegmentArchive(t *testing.T) {
	for name, tb := range map[string]*table.Table{"cdr": datagen.CDR(3000, 7), "census": datagen.Census(3000, 7)} {
		for _, tol := range []float64{0, 0.01} {
			opts := core.Options{Tolerances: table.UniformTolerances(tb, tol, 0)}
			var single, arch bytes.Buffer
			if _, err := core.Compress(&single, tb, opts); err != nil {
				t.Fatal(err)
			}
			if _, err := WriteTable(&arch, tb, opts, SegmentOptions{SegmentRows: tb.NumRows()}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(single.Bytes(), arch.Bytes()) {
				t.Errorf("%s at tolerance %g: core.Compress wrote %d bytes, the one-segment archive %d",
					name, tol, single.Len(), arch.Len())
			}
		}
	}
}
