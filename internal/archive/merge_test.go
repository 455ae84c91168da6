package archive

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// catTable builds a (v, g) table from parallel value and group slices,
// so each call gets its own dictionary in first-seen order.
func catTable(t *testing.T, vs []float64, gs []string) *table.Table {
	t.Helper()
	b, err := table.NewBuilder(table.Schema{
		{Name: "v", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		b.MustAppendRow(vs[i], gs[i])
	}
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestMergeTranslatesDictionaries: blocks built independently carry
// their own dictionaries — reordered, and one with a value the others
// lack. WriteBlock recodes each block into the archive dictionary, so
// every segment decodes with it and every read path returns the input.
func TestMergeTranslatesDictionaries(t *testing.T) {
	vs := [][]float64{{1, 2, 3, 4}, {5, 6, 7}, {8, 9, 10, 11}}
	gs := [][]string{{"b", "a", "b", "a"}, {"a", "b", "a"}, {"c", "a", "c", "b"}}
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var allV []float64
	var allG []string
	for i := range vs {
		if _, err := aw.WriteBlock(catTable(t, vs[i], gs[i])); err != nil {
			t.Fatal(err)
		}
		allV = append(allV, vs[i]...)
		allG = append(allG, gs[i]...)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	input := catTable(t, allV, allG)

	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		seg, err := sr.Segment(i)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := seg.Col(1).Dict, []string{"b", "a", "c"}; !slices.Equal(got, want) {
			t.Fatalf("segment %d dictionary %q, want the archive's %q", i, got, want)
		}
		if !table.Equal(seg, catTable(t, vs[i], gs[i])) {
			t.Errorf("segment %d changed", i)
		}
	}

	back, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(input, back) {
		t.Error("ReadAll of segments with differing dictionaries changed the table")
	}
	q := query.Query{Agg: query.Sum, Column: "v", GroupBy: "g"}
	got, _, err := sr.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.Run(input, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
}

// TestMergeAllocations: merging decoded segments costs allocations per
// column and segment, not per row, and a lone segment comes back as
// decoded.
func TestMergeAllocations(t *testing.T) {
	tb := datagen.CDR(32<<10, 1)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 8 << 10}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tables, err := sr.ReadSegments(context.Background(), []int{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := codec.Merge(tables); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("merging 4 segments of %d rows took %.0f allocations, want at most 200", tb.NumRows(), allocs)
	}

	one, err := codec.Merge(tables[:1])
	if err != nil {
		t.Fatal(err)
	}
	if one != tables[0] {
		t.Error("merging one segment rebuilt it instead of returning it as decoded")
	}
}

// TestQuerySpans: a parent span gets one prune, decode and aggregate
// child, in that order.
func TestQuerySpans(t *testing.T) {
	tb := prunableTable(t, 300)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 300}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	root := tr.Start("query")
	_, qs, err := sr.QuerySpan(context.Background(), root, query.Query{Agg: query.Count, Where: query.NumCmp("v", query.Gt, 500)})
	root.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if qs.Pruned != 1 {
		t.Errorf("pruned %d segments, want 1", qs.Pruned)
	}
	var names []string
	for _, s := range tr.Spans() {
		if s.Depth != 0 && s.Depth != 1 {
			t.Errorf("span %q at depth %d", s.Name, s.Depth)
		}
		if s.End.IsZero() {
			t.Errorf("span %q left open", s.Name)
		}
		names = append(names, s.Name)
	}
	if want := []string{"query", "prune", "decode", "aggregate"}; !slices.Equal(names, want) {
		t.Errorf("spans %q, want %q", names, want)
	}
	// The count reads v alone: one of the three attributes is decoded.
	if got := tr.Find("decode").Attr("columns"); qs.Columns != 1 || got != qs.Columns {
		t.Errorf("decode span columns %v, QueryStats.Columns %d, want 1 and 1", got, qs.Columns)
	}
}

// TestOneSegmentAllocations: a segment that spans the whole table is the
// table itself, not a copy, so a one-segment WriteTable allocates what
// core.Compress does. The byte comparison is skipped under -race, whose
// sync.Pool drops pooled buffers at random.
func TestOneSegmentAllocations(t *testing.T) {
	tb := datagen.CDR(32<<10, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if part := segmentRows(tb, 0, tb.NumRows()); part != tb {
			t.Fatalf("whole-table segment = %p; want the table %p", part, tb)
		}
	})
	if allocs != 0 {
		t.Errorf("a whole-table segment took %.0f allocations, want 0", allocs)
	}
	if raceEnabled {
		return
	}

	opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}
	allocated := func(write func() error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := write(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	single := allocated(func() error {
		_, err := core.Compress(io.Discard, tb, opts)
		return err
	})
	one := allocated(func() error {
		_, err := WriteTable(io.Discard, tb, opts, SegmentOptions{SegmentRows: tb.NumRows()})
		return err
	})
	t.Logf("core.Compress allocated %d B, a one-segment WriteTable %d B (%+.2f%%)", single, one, 100*(float64(one)/float64(single)-1))
	if one > single+single/100 {
		t.Errorf("a one-segment WriteTable allocated %d B, more than 1%% over core.Compress's %d B", one, single)
	}
}
