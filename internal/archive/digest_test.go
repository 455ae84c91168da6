package archive

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// archiveDigest is the SHA-256 of the archives TestArchiveDigest writes.
// It pins every byte of the compressed format: a change that should not
// alter output (a refactor, a deleted option, a faster search) must keep
// it; a deliberate format or model change updates it and says why.
const archiveDigest = "4fe25d38c00a4024237d1bea2d03d856803525652774922777df954d04455726"

// TestArchiveDigest hashes WriteTableContext output over four datasets at
// 1,500 rows (seed 1), lossless and at 1% numeric tolerance, under each
// CaRT-selection strategy, as one segment and as 500-row segments. Each
// archive is hashed with its length prefix so a shift between two
// archives cannot cancel out. The datasets run in parallel; their
// digests are combined in a fixed order.
func TestArchiveDigest(t *testing.T) {
	const rows = 1500
	datasets := []struct {
		name string
		gen  func(n int, seed int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	}
	strategies := []core.SelectionStrategy{core.SelectWMISParents, core.SelectWMISMarkov, core.SelectGreedy}
	sums := make([][]byte, len(datasets))
	t.Run("datasets", func(t *testing.T) {
		for i, ds := range datasets {
			t.Run(ds.name, func(t *testing.T) {
				t.Parallel()
				tb := ds.gen(rows, 1)
				h := sha256.New()
				for _, tol := range []float64{0, 0.01} {
					for _, sel := range strategies {
						for _, segRows := range []int{0, 500} {
							opts := core.Options{Tolerances: table.UniformTolerances(tb, tol, 0), Selection: sel}
							var buf bytes.Buffer
							if _, err := WriteTableContext(context.Background(), &buf, tb, opts, SegmentOptions{SegmentRows: segRows}); err != nil {
								t.Fatalf("tol=%g %v seg=%d: %v", tol, sel, segRows, err)
							}
							var n [8]byte
							binary.LittleEndian.PutUint64(n[:], uint64(buf.Len()))
							_, _ = h.Write(n[:])
							_, _ = h.Write(buf.Bytes())
						}
					}
				}
				sums[i] = h.Sum(nil)
			})
		}
	})
	h := sha256.New()
	for _, s := range sums {
		_, _ = h.Write(s)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != archiveDigest {
		t.Errorf("archive digest = %s, want %s", got, archiveDigest)
	}
}
