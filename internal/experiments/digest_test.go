package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fascicle"
)

// fascicleDigest is the SHA-256 of the streams TestFascicleBaselineDigest
// writes. It pins Figure 5's fascicles column byte for byte: a change to
// fascicle clustering or its format that should not alter the baseline
// must keep it.
const fascicleDigest = "fa6e6fed6d10c6b6a3ede08e9fde4de7b5f4f9e786900b220328308e4d6483f1"

// TestFascicleBaselineDigest hashes the gzipped fascicle streams
// RunFascicles measures for every dataset at its default rows (seed 1)
// and every Figure 5 threshold, concatenated in plot order. The
// datasets run in parallel.
func TestFascicleBaselineDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("clusters every Figure 5 table at its default rows")
	}
	streams := make([][][]byte, len(AllDatasets))
	t.Run("datasets", func(t *testing.T) {
		for i, d := range AllDatasets {
			t.Run(string(d), func(t *testing.T) {
				t.Parallel()
				tb, err := d.Load(0, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, frac := range Thresholds {
					data, err := fascicle.Compress(tb, fascicleParams(tb, d, frac), true)
					if err != nil {
						t.Fatalf("%g: %v", frac, err)
					}
					streams[i] = append(streams[i], data)
				}
			})
		}
	})
	h := sha256.New()
	for _, ss := range streams {
		for _, s := range ss {
			_, _ = h.Write(s)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fascicleDigest {
		t.Errorf("fascicle baseline digest = %s, want %s", got, fascicleDigest)
	}
}
