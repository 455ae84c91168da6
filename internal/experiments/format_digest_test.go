package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gzipref"
	"repro/internal/pzipref"
	"repro/internal/table"
)

// baselineFormatDigest is the SHA-256 of the streams
// TestBaselineFormatDigest writes. It pins the raw table format and the
// gzip and pzip baselines byte for byte: a change to their writers that
// should not alter the formats must keep it.
const baselineFormatDigest = "a44124315e67741a7b1fb9fc0def111a001abe7821ea9edb00c28357e3c34413"

// TestBaselineFormatDigest hashes table.WriteBinary, pzipref.Compress
// and gzipref.Compress output for every generated dataset (seed 1) at 0,
// 1 and 5,000 rows, each stream prefixed by its length, in that order.
// 5,000 rows of each dataset span several of WriteBinary's 64 KB blocks.
// SPARC4 archives, CaRTs and the fascicle baseline have their own
// digests (archive.TestArchiveDigest, cart.TestBuildDigest and
// TestFascicleBaselineDigest). The datasets run in parallel.
func TestBaselineFormatDigest(t *testing.T) {
	gens := []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	}
	streams := make([][][]byte, len(gens))
	t.Run("datasets", func(t *testing.T) {
		for i, g := range gens {
			t.Run(g.name, func(t *testing.T) {
				t.Parallel()
				for _, rows := range []int{0, 1, 5000} {
					tb := g.gen(rows, 1)
					var raw bytes.Buffer
					if err := table.WriteBinary(&raw, tb); err != nil {
						t.Fatalf("%d rows: WriteBinary: %v", rows, err)
					}
					pz, err := pzipref.Compress(tb)
					if err != nil {
						t.Fatalf("%d rows: pzipref: %v", rows, err)
					}
					gz, err := gzipref.Compress(tb)
					if err != nil {
						t.Fatalf("%d rows: gzipref: %v", rows, err)
					}
					streams[i] = append(streams[i], raw.Bytes(), pz, gz)
				}
			})
		}
	})
	h := sha256.New()
	for _, ss := range streams {
		for _, s := range ss {
			_, _ = fmt.Fprintf(h, "%d:", len(s))
			_, _ = h.Write(s)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != baselineFormatDigest {
		t.Errorf("baseline format digest = %s, want %s", got, baselineFormatDigest)
	}
}
