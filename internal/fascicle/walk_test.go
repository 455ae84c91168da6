package fascicle

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// wideTable is TestClusterAllocations' many-columns case: 48 binary
// categorical columns, whose halves are every seed's widest windows, and
// 4 uniform numeric columns. Each row copies the random codes of one of
// groups patterns, up to 5% noise. With a pattern per row fascicles
// stay small, and each seed walks a window of about half the table.
func wideTable(t testing.TB, n, groups int) *table.Table {
	rng := rand.New(rand.NewSource(3))
	patterns := make([][48]int32, groups)
	for g := range patterns {
		for a := range patterns[g] {
			patterns[g][a] = int32(rng.Intn(2))
		}
	}
	schema := make(table.Schema, 52)
	cols := make([]*table.Column, len(schema))
	for a := range cols {
		schema[a].Name = fmt.Sprintf("c%d", a)
		if a < 48 {
			schema[a].Kind = table.Categorical
			cols[a] = &table.Column{Kind: table.Categorical, Dict: []string{"n", "y"}, Codes: make([]int32, n)}
			continue
		}
		schema[a].Kind = table.Numeric
		cols[a] = &table.Column{Kind: table.Numeric, Floats: make([]float64, n)}
	}
	for r := 0; r < n; r++ {
		pattern := &patterns[rng.Intn(groups)]
		for a, col := range cols {
			switch {
			case col.Kind == table.Numeric:
				col.Floats[r] = float64(rng.Intn(1000))
			case rng.Intn(20) == 0:
				col.Codes[r] = int32(rng.Intn(2))
			default:
				col.Codes[r] = pattern[a]
			}
		}
	}
	tb, err := table.New(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// rangeWidths gives every numeric attribute of tb frac of its range as
// width, every categorical attribute 0.
func rangeWidths(t testing.TB, tb *table.Table, frac float64) []float64 {
	tol, err := table.UniformTolerances(tb, frac, 0).Resolve(tb)
	if err != nil {
		t.Fatal(err)
	}
	widths := make([]float64, tb.NumCols())
	for a := range widths {
		if tb.Attr(a).Kind == table.Numeric {
			widths[a] = tol[a].Value
		}
	}
	return widths
}

// TestClusterAllocations bounds what Cluster allocates per row and
// column: the uint32 index rows (4 bytes per row and column), the radix
// sort's shared key and row buffers (20 bytes per row) and per-row
// state, the assigned flags and the member rows of the candidate buffer,
// the fascicles and the leftovers. On 32k CDR rows, on a random wide
// table and on a table of eight large clusters it measured 7.5, 5.3 and
// 12.6 bytes per row and column (linux/amd64, go1.24). Index rows of
// []int would add 4 to each, past every bound.
//
// It also bounds how many objects Cluster allocates: four slices per
// fascicle, per column its index and buffers, and the growth of the
// representatives' tally, at most perFascicle·fascicles +
// perColumn·cols + tally (2056, 1196 and 121 measured against bounds of
// 2724, 2181 and 184). A defer or an escaping value in a loop over rows
// adds one per iteration: the seed scan's skip over assigned rows does
// tens of thousands, and the eight clusters give keep, mode and the
// candidate walk thousands of rows, and mode thousands of distinct
// values, in one call.
func TestClusterAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented appends allocate a copy of each buffer they grow")
	}
	const perFascicle, perColumn, tally = 5, 16, 64
	for _, tc := range []struct {
		name  string
		tb    *table.Table
		bound float64 // bytes per row and column
	}{
		{"cdr-32k", datagen.CDR(32000, 1), 8},
		{"wide", wideTable(t, 8000, 8000), 6},
		{"blocks", blockTable(t, 32000), 13},
	} {
		p := Params{Widths: rangeWidths(t, tc.tb, 0.01)}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := Cluster(tc.tb, p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.tb.NumRows()*tc.tb.NumCols())
		objects, limit := after.Mallocs-before.Mallocs, uint64(perFascicle*len(c.Fascicles)+perColumn*tc.tb.NumCols()+tally)
		t.Logf("%s: %.1f bytes per row and column, %d allocations (limit %d), %d fascicles",
			tc.name, perCell, objects, limit, len(c.Fascicles))
		if perCell > tc.bound {
			t.Errorf("%s: Cluster allocated %.1f bytes per row and column, want ≤ %g", tc.name, perCell, tc.bound)
		}
		if objects > limit {
			t.Errorf("%s: Cluster made %d allocations for %d fascicles over %d columns, want ≤ %d",
				tc.name, objects, len(c.Fascicles), tc.tb.NumCols(), limit)
		}
	}
}

// TestStandaloneAllocations pins that the stand-alone fascicle format
// (the paper's §4.1 baseline) writes and reads a table without a heap
// allocation per row or cell: Compress plus Decompress at 8k and 32k
// rows may differ by at most growthSlack allocations (the decoded
// columns' appends grow them), while a defer or an escaping scratch
// array in a row loop of Encode or Decompress adds one per row. CDR,
// clustered into at most 50 fascicles, leaves most rows over; the eight
// clusters of blockTable put thousands of rows in each fascicle.
func TestStandaloneAllocations(t *testing.T) {
	const small, large, growthSlack = 8000, 32000, 128
	for _, tc := range []struct {
		name         string
		gen          func(rows int) *table.Table
		maxFascicles int
	}{
		{"cdr", func(rows int) *table.Table { return datagen.CDR(rows, 1) }, 50},
		{"blocks", func(rows int) *table.Table { return blockTable(t, rows) }, 0},
	} {
		measure := func(rows int) uint64 {
			tb := tc.gen(rows)
			p := Params{Widths: rangeWidths(t, tb, 0.01), MaxFascicles: tc.maxFascicles}
			return mallocs(func() {
				data, err := Compress(tb, p, false)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Decompress(data)
				if err != nil {
					t.Fatal(err)
				}
				if back.NumRows() != rows {
					t.Fatalf("%s: decompressed %d rows, want %d", tc.name, back.NumRows(), rows)
				}
			})
		}
		a, b := measure(small), measure(large)
		t.Logf("%s: Compress+Decompress made %d allocations at %d rows, %d at %d", tc.name, a, small, b, large)
		if b > a+growthSlack {
			t.Errorf("%s: Compress+Decompress allocates per row: %d allocations at %d rows, %d at %d, want ≤ %d",
				tc.name, a, small, b, large, a+growthSlack)
		}
	}
}

// mallocs runs f after a collection and reports how many heap objects it
// allocated. The collection empties the runtime's central pool of defer
// records, so a defer in a loop body counts once per iteration even when
// an earlier run left its records behind.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// blockTable draws each of n rows from one of eight groups: four numeric
// columns within 2 of the group's values and the group's label, so each
// group clusters into fascicles of thousands of rows. Column a takes up
// to 2048 distinct values per group, so choosing a fascicle's
// representative (mode) tallies thousands of them.
func blockTable(t testing.TB, n int) *table.Table {
	rng := rand.New(rand.NewSource(5))
	b := table.MustBuilder(table.Schema{
		{Name: "a", Kind: table.Numeric},
		{Name: "b", Kind: table.Numeric},
		{Name: "c", Kind: table.Numeric},
		{Name: "d", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	})
	for range n {
		g := rng.Intn(8)
		b.MustAppendRow(float64(100*g)+float64(rng.Intn(2048))/1024, float64(50*g+rng.Intn(3)), float64(700-90*g+rng.Intn(3)), float64(rng.Intn(1000)), fmt.Sprint("g", g))
	}
	return b.MustBuild()
}
