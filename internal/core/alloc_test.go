package core

import (
	"context"
	"io"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// TestApplyAllocationsDoNotGrowWithRows measures what a lint rule could
// only guess: the apply step (the grid snap, outlier scan and the T′
// encoder, the paper's one pass over the full data set) must not
// heap-allocate per row or per cell. One model, learned on all rows, is
// applied to the first 2k rows and to all 32k; 16× the rows may cost at
// most 4× the allocations. A per-value allocation in an encoder's inner
// loop (a scratch array escaping through bufio.Writer.Write, say) puts
// the ratio near 16×.
func TestApplyAllocationsDoNotGrowWithRows(t *testing.T) {
	const small, large, maxRatio = 2000, 32000, 4.0
	for _, ds := range []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
	} {
		t.Run(ds.name, func(t *testing.T) {
			tb := ds.gen(large, 1)
			ctx := context.Background()
			m, err := Learn(ctx, tb, Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)})
			if err != nil {
				t.Fatal(err)
			}
			// The snap loop runs over every row of a lossy materialized
			// column, so it is pinned only if some cell moves.
			if _, moved, err := snap(tb, m.plan.Materialized, m.resolved, m.splits, new([]float64)); err != nil || moved == 0 {
				t.Fatalf("snap moved %d cells (err %v); the pin needs a lossy materialized column", moved, err)
			}
			head := make([]int, small)
			for i := range head {
				head[i] = i
			}
			first, err := tb.SelectRows(head)
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(body *table.Table) float64 {
				return testing.AllocsPerRun(2, func() {
					if _, err := m.Apply(ctx, io.Discard, body); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocs(first), allocs(tb)
			t.Logf("allocs: %d rows %.0f, %d rows %.0f (%.2f×)", small, a, large, b, b/a)
			if b > maxRatio*a {
				t.Errorf("Apply allocations grow with rows: %.0f at %d rows, %.0f at %d (%.2f×, want ≤ %g×)",
					a, small, b, large, b/a, maxRatio)
			}
		})
	}
}
