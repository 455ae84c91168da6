package core

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/table"
)

// TestAggregationGate pins Learn's decision to run the fascicle pass.
// Where the pass cannot change a cell (lossless) nothing is probed; on
// CDR sorted by start_hour, as call records arrive, the sample predicts
// a saving below minAggregationSaving and the pass is skipped; on corel
// at 5% it is run and shrinks the archive. A closed gate writes the
// bytes DisableRowAggregation writes.
func TestAggregationGate(t *testing.T) {
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
	cases := []struct {
		name string
		tb   *table.Table
		tol  float64
		open bool
	}{
		{"cdr-lossless", cdr, 0, false},
		{"cdr-1%", cdr, 0.01, false},
		{"cdr-10%", cdr, 0.10, false},
		{"corel-5%", datagen.Corel(4000, 1), 0.05, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tol := table.UniformTolerances(c.tb, c.tol, 0)
			tr := obs.NewTrace("gate")
			var gated, off bytes.Buffer
			stats, err := Compress(&gated, c.tb, Options{Tolerances: tol, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Compress(&off, c.tb, Options{Tolerances: tol, DisableRowAggregation: true}); err != nil {
				t.Fatal(err)
			}
			cs, ra := tr.Find(SpanCaRTSelection), tr.Find(SpanRowAggregation)
			saving, _ := cs.Attr("aggregation_saving").(float64)
			t.Logf("sample saving %.4f; %d bytes, %d without the pass", saving, gated.Len(), off.Len())
			if got := cs.Attr("aggregate"); got != c.open {
				t.Errorf("aggregate = %v (saving %.4f), want %v", got, saving, c.open)
			}
			if c.open {
				if saving < minAggregationSaving || stats.Fascicles == 0 {
					t.Errorf("open gate: saving %.4f, %d fascicles", saving, stats.Fascicles)
				}
				if gated.Len() >= off.Len() {
					t.Errorf("archive with the pass is %d bytes, without %d", gated.Len(), off.Len())
				}
				return
			}
			if stats.Fascicles != 0 || ra.Attr("seeds_tried") != 0 {
				t.Errorf("closed gate: %d fascicles, seeds_tried = %v", stats.Fascicles, ra.Attr("seeds_tried"))
			}
			if !bytes.Equal(gated.Bytes(), off.Bytes()) {
				t.Errorf("closed gate wrote %d bytes, DisableRowAggregation %d, or other bytes", gated.Len(), off.Len())
			}
		})
	}

	// Lossless, the probe is skipped outright: a cancelled context would
	// stop the fascicle pass at its first seed.
	m, err := Learn(context.Background(), cdr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	materBits := make([]float64, cdr.NumCols())
	for i := range materBits {
		materBits[i] = 1
	}
	if saving, err := aggregationSaving(ctx, cdr, m.plan, m.resolved, materBits); err != nil || saving != 0 {
		t.Errorf("lossless probe: saving %v, err %v; want 0 without running the pass", saving, err)
	}
}
