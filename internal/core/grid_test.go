package core_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/table"
)

// TestGridKeepsModels checks the RowAggregator's 2e grid on CDR as 32k
// rows sorted by start_hour, as call records arrive, and on census,
// corel and forest at 12k rows, lossless and at every Figure 5
// threshold, each written in 4k-row segments. Against the archive
// written with DisableRowAggregation, the grid keeps every outlier and
// every model byte, since no snapped cell crosses a split value, and
// the archive is no larger; lossless the two are the same bytes. Every
// decoded numeric cell lies within its bound, and the archive is the
// same at 1 and 4 workers.
func TestGridKeepsModels(t *testing.T) {
	cdr := datagen.CDR(32000, 1)
	hour := cdr.Col(cdr.Schema().Index("start_hour")).Floats
	order := make([]int, cdr.NumRows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return hour[order[a]] < hour[order[b]] })
	cdr, err := cdr.SelectRows(order)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		tb   *table.Table
	}{
		{"cdr", cdr},
		{"census", datagen.Census(12000, 1)},
		{"corel", datagen.Corel(12000, 1)},
		{"forest", datagen.ForestCover(12000, 1)},
	}
	for _, in := range inputs {
		for _, frac := range append([]float64{0}, experiments.Thresholds...) {
			name := fmt.Sprintf("%s-%.3g%%", in.name, frac*100)
			if frac == 0 {
				name = in.name + "-lossless"
			}
			t.Run(name, func(t *testing.T) {
				tol := table.UniformTolerances(in.tb, frac, 0)
				write := func(off bool, workers int) ([]byte, *archive.TableStats) {
					var buf bytes.Buffer
					opts := core.Options{Tolerances: tol, DisableRowAggregation: off}
					st, err := archive.WriteTableContext(context.Background(), &buf, in.tb, opts, archive.SegmentOptions{SegmentRows: 4000, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					return buf.Bytes(), st
				}
				grid, gst := write(false, 1)
				off, ost := write(true, 1)
				t.Logf("%d bytes, %d without the grid (%.1f%% smaller)", len(grid), len(off), 100*(1-float64(len(grid))/float64(len(off))))
				if gst.Outliers != ost.Outliers || gst.ModelBytes != ost.ModelBytes {
					t.Errorf("grid: %d outliers in %d model bytes, without it %d in %d", gst.Outliers, gst.ModelBytes, ost.Outliers, ost.ModelBytes)
				}
				if len(grid) > len(off) {
					t.Errorf("archive with the grid is %d bytes, without %d", len(grid), len(off))
				}
				if frac == 0 && !bytes.Equal(grid, off) {
					t.Error("lossless archive differs with and without the grid")
				}
				if par, _ := write(false, 4); !bytes.Equal(par, grid) {
					t.Errorf("4 workers wrote %d bytes, 1 worker %d, or other bytes", len(par), len(grid))
				}
				back, err := archive.ReadAll(bytes.NewReader(grid))
				if err != nil {
					t.Fatal(err)
				}
				bounds, err := tol.Resolve(in.tb)
				if err != nil {
					t.Fatal(err)
				}
				diffs, err := table.MaxAbsDiff(in.tb, back)
				if err != nil {
					t.Fatal(err)
				}
				for a, d := range diffs {
					if d > bounds[a].Value {
						t.Errorf("%s: error %g past its bound %g", in.tb.Attr(a).Name, d, bounds[a].Value)
					}
				}
			})
		}
	}
}
