package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// TestStressParallelPipeline drives the two fan-out points of the
// pipeline — the GOMAXPROCS-bounded outlier scan inside Compress and
// the GOMAXPROCS-bounded model reconstruction inside Decompress — from
// several pipelines at once. Its job is to give the race detector
// something to bite on: it is the check that the outlier scan's
// workers shard their result slots and guard their shared totals, and
// that no worker goroutine leaks or deadlocks (a missed Done hangs
// the test). internal/par's tests pin the concurrency bound itself.
//
// Both fan-outs run through par.ForEach bounded at GOMAXPROCS. At
// GOMAXPROCS=1 the bound orders every worker after the previous one,
// and -race sees no concurrent access to report, so the test raises
// GOMAXPROCS to at least 4 for its duration: the workers then overlap
// on any host, single-core CI runners included.
// It runs in CI's race job and is skipped under -short.
func TestStressParallelPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: meaningful only under -race in the full run")
	}
	prev := runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	const pipelines = 4
	rows := 600 * runtime.GOMAXPROCS(0)
	if rows > 6000 {
		rows = 6000
	}

	var wg sync.WaitGroup
	for p := 0; p < pipelines; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tb := datagen.CDR(rows, seed)
			tol, err := table.UniformTolerances(tb, 0.01, 0).Resolve(tb)
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			if _, err := Compress(&buf, tb, Options{Tolerances: tol}); err != nil {
				t.Errorf("compress (seed %d): %v", seed, err)
				return
			}
			blob := buf.Bytes()
			// Decode the same archive from two goroutines so the
			// per-model reconstruction fan-out overlaps with itself.
			var inner sync.WaitGroup
			for d := 0; d < 2; d++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					back, err := Decompress(bytes.NewReader(blob))
					if err != nil {
						t.Errorf("decompress (seed %d): %v", seed, err)
						return
					}
					if back.NumRows() != tb.NumRows() {
						t.Errorf("seed %d: round trip rows = %d, want %d", seed, back.NumRows(), tb.NumRows())
					}
				}()
			}
			inner.Wait()
		}(int64(p + 1))
	}
	wg.Wait()
}
