package cart

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// buildDigest is the SHA-256 of the trees and costs TestBuildDigest
// builds. It pins Build under every prune mode: a change that should not
// alter the trees (a faster split search, a different row layout) must
// keep it; a deliberate change to growth or pruning updates it and says
// why.
const buildDigest = "1deed4ddb3c53b6323ed345629d90c3a27eeba5c5684362d85e267bf0416ea6a"

// TestBuildDigest builds a tree for every target of four datasets at
// 1,000 rows (seed 1), 1% numeric and 2% categorical tolerance, each
// predicted from every other attribute, under PruneIntegrated, PruneAfter
// and PruneNone, and hashes each encoded tree with its length and the
// bits of its returned cost. TestArchiveDigest runs only the default
// mode; this one catches a PruneAfter or PruneNone tree that moves. The
// datasets run in parallel; their digests are combined in a fixed order.
func TestBuildDigest(t *testing.T) {
	const rows = 1000
	datasets := []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	}
	sums := make([][]byte, len(datasets))
	t.Run("datasets", func(t *testing.T) {
		for i, ds := range datasets {
			t.Run(ds.name, func(t *testing.T) {
				t.Parallel()
				sums[i] = digestTrees(t, ds.gen(rows, 1))
			})
		}
	})
	h := sha256.New()
	for _, s := range sums {
		_, _ = h.Write(s)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != buildDigest {
		t.Errorf("build digest = %s, want %s", got, buildDigest)
	}
}

// digestTrees hashes the trees and costs TestBuildDigest builds on tb.
func digestTrees(t *testing.T, tb *table.Table) []byte {
	h := sha256.New()
	var buf []byte
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		_, _ = h.Write(word[:])
	}
	tol := table.UniformTolerances(tb, 0.01, 0.02)
	cm := NewCostModel(tb)
	s := NewSample(tb)
	for target := 0; target < tb.NumCols(); target++ {
		cands := otherAttrs(tb, target)
		for _, mode := range []PruneMode{PruneIntegrated, PruneAfter, PruneNone} {
			m, cost, err := Build(context.Background(), s, target, cands, tol[target].Value, cm, Config{Prune: mode})
			if err != nil {
				t.Fatalf("target %d mode %d: %v", target, mode, err)
			}
			if buf, err = m.AppendBinary(buf[:0]); err != nil {
				t.Fatalf("target %d mode %d: %v", target, mode, err)
			}
			put(uint64(len(buf)))
			_, _ = h.Write(buf)
			put(math.Float64bits(cost))
		}
	}
	return h.Sum(nil)
}

// otherAttrs lists every attribute of tb but target, the widest candidate
// set a tree for target can have.
func otherAttrs(tb *table.Table, target int) []int {
	cands := make([]int, 0, tb.NumCols()-1)
	for a := 0; a < tb.NumCols(); a++ {
		if a != target {
			cands = append(cands, a)
		}
	}
	return cands
}
