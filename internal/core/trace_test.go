package core_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
)

// TestCompressTrace asserts that Compress emits one span per pipeline
// phase under the learn and apply roots every writer emits, with
// monotonic timestamps, and that the Timings struct agrees with the span
// durations.
func TestCompressTrace(t *testing.T) {
	tb := datagen.CDR(2000, 1)
	tr := obs.NewTrace("compress")
	var out bytes.Buffer
	stats, err := core.Compress(&out, tb, core.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	for _, phase := range core.PhaseSpans {
		if byName[phase] != 1 {
			t.Errorf("phase %q: %d spans, want exactly 1", phase, byName[phase])
		}
	}
	// Spans are reported in start order: the learn root and its two
	// phases, then the apply root and its three.
	want := []string{core.SpanLearn, core.SpanDependencyFinder, core.SpanCaRTSelection,
		core.SpanApply, core.SpanRowAggregation, core.SpanOutlierScan, core.SpanEncode}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(spans), len(want))
	}

	// Monotonic: each span must end before the next begins unless it is
	// the next one's root, every phase must close inside its root, and no
	// span may end before it starts.
	var root, prev *obs.Span
	for i, s := range spans {
		if s.Name != want[i] {
			t.Errorf("span %d = %q, want %q", i, s.Name, want[i])
		}
		if s.End.Before(s.Start) {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		if s.Name == core.SpanLearn || s.Name == core.SpanApply {
			if s.Depth != 0 {
				t.Errorf("root %q depth = %d, want 0", s.Name, s.Depth)
			}
			if prev != nil && s.Start.Before(prev.End) {
				t.Errorf("root %q starts before %q ends", s.Name, prev.Name)
			}
			root, prev = s, s
			continue
		}
		if s.Depth != 1 {
			t.Errorf("span %q depth = %d, want 1", s.Name, s.Depth)
		}
		if s.Start.Before(root.Start) || s.End.After(root.End) {
			t.Errorf("span %q [%v, %v] escapes root %q [%v, %v]",
				s.Name, s.Start, s.End, root.Name, root.Start, root.End)
		}
		if prev != root && s.Start.Before(prev.End) {
			t.Errorf("span %q starts before %q ends", s.Name, prev.Name)
		}
		prev = s
	}

	// Timings must be exactly the span durations.
	checks := []struct {
		name string
		want int64
	}{
		{core.SpanDependencyFinder, int64(stats.Timings.DependencyFinder)},
		{core.SpanCaRTSelection, int64(stats.Timings.CaRTSelection)},
		{core.SpanRowAggregation, int64(stats.Timings.RowAggregation)},
		{core.SpanOutlierScan, int64(stats.Timings.OutlierScan)},
		{core.SpanEncode, int64(stats.Timings.Encode)},
	}
	for _, c := range checks {
		if got := int64(tr.Find(c.name).Duration()); got != c.want {
			t.Errorf("Timings for %q = %d, span duration %d", c.name, c.want, got)
		}
	}

	// The §4.2 quantities ride on the spans.
	if got := tr.Find(core.SpanCaRTSelection).Attr("carts_built"); got != stats.CartsBuilt {
		t.Errorf("carts_built attr = %v, want %d", got, stats.CartsBuilt)
	}
	// Row aggregation reports its work: every fascicle comes from a tried
	// seed, at most 4·MaxFascicles+64 seeds are tried, and each seed's
	// candidate walk visits at least the seed and at most every row.
	ra := tr.Find(core.SpanRowAggregation)
	if got := ra.Attr("fascicles"); got != stats.Fascicles {
		t.Errorf("fascicles attr = %v, want %d", got, stats.Fascicles)
	}
	seeds, _ := ra.Attr("seeds_tried").(int)
	scanned, _ := ra.Attr("rows_scanned").(int)
	if stats.Fascicles == 0 || seeds < stats.Fascicles || seeds > 4*500+64 {
		t.Errorf("seeds_tried = %v with %d fascicles", ra.Attr("seeds_tried"), stats.Fascicles)
	}
	if scanned < seeds || scanned > seeds*tb.NumRows() {
		t.Errorf("rows_scanned = %v with %d seeds over %d rows", ra.Attr("rows_scanned"), seeds, tb.NumRows())
	}
	if got := tr.Find(core.SpanOutlierScan).Attr("outliers"); got != stats.Outliers {
		t.Errorf("outliers attr = %v, want %d", got, stats.Outliers)
	}
	// encode writes the one segment's body; the container around it is
	// written after the apply step.
	cr, err := codec.Open(bytes.NewReader(out.Bytes()), codec.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if got, body := tr.Find(core.SpanEncode).Attr("bytes_written"), int(cr.Info(0).Length); got != body {
		t.Errorf("bytes_written attr = %v, want the body's %d bytes", got, body)
	}

	// The rendered tree mentions every phase.
	var b strings.Builder
	tr.WriteTree(&b)
	for _, phase := range core.PhaseSpans {
		if !strings.Contains(b.String(), phase) {
			t.Errorf("tree missing phase %q:\n%s", phase, b.String())
		}
	}
}

// TestCompressTraceObserver checks the OnSpanEnd hook fires once per span,
// both roots included, so a metrics registry can be fed from the
// pipeline.
func TestCompressTraceObserver(t *testing.T) {
	tb := datagen.CDR(500, 2)
	tr := obs.NewTrace("compress")
	var ended []string
	tr.OnSpanEnd(func(s *obs.Span) { ended = append(ended, s.Name) })
	if _, err := core.Compress(io.Discard, tb, core.Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(ended) != len(core.PhaseSpans)+2 {
		t.Fatalf("observer fired %d times (%v), want %d", len(ended), ended, len(core.PhaseSpans)+2)
	}
	// The apply root finishes last.
	if ended[len(ended)-1] != core.SpanApply {
		t.Errorf("last ended span = %q, want %q", ended[len(ended)-1], core.SpanApply)
	}
}
