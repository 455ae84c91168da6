package fascicle

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// referenceCluster is Cluster without the window memo and with the
// single-window walk: every seed sizes every numeric window by binary
// search, keeps the K most populated by a stable sort, walks its
// sparsest chosen window and keeps the unassigned rows that fit every
// chosen window.
func referenceCluster(t *table.Table, p Params) (*Clustering, error) {
	p, err := p.withDefaults(t)
	if err != nil {
		return nil, err
	}
	g := newGrower(t, p)
	var matches []attrMatch
	choose := func(seed int) []attrMatch {
		matches = matches[:0]
		for a := 0; a < t.NumCols(); a++ {
			col := t.Col(a)
			am := attrMatch{attr: a}
			if col.Kind == table.Numeric {
				am.vals = col.Floats
				s, w := am.vals[seed], p.Widths[a]
				best := -1
				for _, anchor := range [3][2]float64{{s - 2*w, s}, {s - w, s + w}, {s, s + 2*w}} {
					if from, to := valueWindow(am.vals, g.idx[a].sortedRows, anchor[0], anchor[1]); to-from > best {
						best = to - from
						am.from, am.to, am.lo, am.hi = from, to, anchor[0], anchor[1]
					}
				}
			} else {
				am.isCat, am.codes = true, col.Codes
				am.seedC = am.codes[seed]
				am.from, am.to = g.idx[a].codeStart[am.seedC], g.idx[a].codeStart[am.seedC+1]
			}
			matches = append(matches, am)
		}
		slices.SortStableFunc(matches, func(x, y attrMatch) int { return cmp.Compare(y.count(), x.count()) })
		return matches[:p.K]
	}
	return g.cluster(context.Background(), choose, func(chosen []attrMatch) []int {
		sparse := 0
		for j := range chosen {
			if chosen[j].count() < chosen[sparse].count() {
				sparse = j
			}
		}
		window := g.idx[chosen[sparse].attr].sortedRows[chosen[sparse].from:chosen[sparse].to]
		g.rowsScanned += len(window)
		rows := g.rows[:0]
		for _, r := range window {
			if !g.assigned[r] && !slices.ContainsFunc(chosen, func(am attrMatch) bool { return !am.fits(r) }) {
				rows = append(rows, int(r))
			}
		}
		return rows
	})
}

// matchReference clusters tb both ways and fails unless the fascicles,
// leftovers and seeds tried are equal and the pair walk visited no more
// rows than the reference. It returns both clusterings.
func matchReference(t *testing.T, tb *table.Table, p Params) (got, want *Clustering) {
	t.Helper()
	got, err := Cluster(context.Background(), tb, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err = referenceCluster(tb, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Fascicles, want.Fascicles) || !reflect.DeepEqual(got.Leftover, want.Leftover) {
		t.Fatalf("pair walk found %d fascicles and %d leftovers, reference %d and %d, or their rows differ",
			len(got.Fascicles), len(got.Leftover), len(want.Fascicles), len(want.Leftover))
	}
	if got.SeedsTried() != want.SeedsTried() {
		t.Fatalf("pair walk tried %d seeds, reference %d", got.SeedsTried(), want.SeedsTried())
	}
	if got.RowsScanned() > want.RowsScanned() {
		t.Fatalf("pair walk scanned %d rows, reference %d", got.RowsScanned(), want.RowsScanned())
	}
	if max := 2 * tb.NumCols(); got.PairLists() > max {
		t.Fatalf("%d pair lists built, budget %d", got.PairLists(), max)
	}
	return got, want
}

// sortedByCol returns tb's rows stably sorted by numeric column name,
// the order of a call-record stream.
func sortedByCol(t testing.TB, tb *table.Table, name string) *table.Table {
	vals := tb.Col(tb.Schema().Index(name)).Floats
	order := make([]int, tb.NumRows())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[a] > vals[b]:
			return 1
		}
		return 0
	})
	sorted, err := tb.SelectRows(order)
	if err != nil {
		t.Fatal(err)
	}
	return sorted
}

// wideTable is a hostile input for the pair-list budget: 48 binary
// categorical columns, whose halves are every seed's widest windows, and
// 4 uniform numeric columns. Each row copies the random codes of one of
// groups patterns, up to 5% noise. With few groups fascicles grow and
// the seeds of different groups want different column pairs; with a
// pattern per row no fascicle grows and nearly every seed wants a pair
// of its own, walking half the table for it.
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

// repeatTable is a hostile input for the window memo. Its numeric
// columns take 41, 21 and 600 values, so most seeds reuse a window sized
// for an earlier seed and column c's values collide in the memo's slots,
// and each holds -0 and +0 side by side; its categorical column takes 50.
func repeatTable(t testing.TB, n int) *table.Table {
	rng := rand.New(rand.NewSource(7))
	signed := func(v int, scale float64) float64 {
		if v != 0 {
			return float64(v) * scale
		}
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	b := table.MustBuilder(table.Schema{
		{Name: "a", Kind: table.Numeric},
		{Name: "b", Kind: table.Numeric},
		{Name: "c", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	})
	for range n {
		b.MustAppendRow(signed(rng.Intn(41)-20, 0.5), signed(rng.Intn(21)-10, 2), signed(rng.Intn(600)-300, 0.25), fmt.Sprint("g", rng.Intn(50)))
	}
	tb := b.MustBuild()
	if !slices.ContainsFunc(tb.Col(0).Floats, func(v float64) bool { return math.Float64bits(v) == 1<<63 }) {
		t.Fatal("repeatTable holds no -0")
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

// TestPairWalkMatchesReference checks that the memoized, pair-walking
// Cluster finds exactly the fascicles of the unmemoized single-window
// reference on the datagen tables, on a wide table that spends the
// pair-list budget and on a table of repeated values and signed zeros,
// at 1% and 5% widths. Cluster takes no split values, so every case
// keeps the splits=false suffix it has always been reported under.
func TestPairWalkMatchesReference(t *testing.T) {
	inputs := []struct {
		name string
		tb   *table.Table
	}{
		{"cdr-8k", sortedByCol(t, datagen.CDR(8000, 1), "start_hour")},
		{"cdr-32k", sortedByCol(t, datagen.CDR(32000, 1), "start_hour")},
		{"census", datagen.Census(8000, 1)},
		{"forest", datagen.ForestCover(8000, 1)},
		{"corel", datagen.Corel(8000, 1)},
		{"wide", wideTable(t, 4000, 256)},
		{"repeats", repeatTable(t, 8000)},
	}
	if testing.Short() {
		inputs = inputs[:1]
	}
	for _, in := range inputs {
		for _, frac := range []float64{0.01, 0.05} {
			t.Run(fmt.Sprintf("%s/%g/splits=false", in.name, frac), func(t *testing.T) {
				got, want := matchReference(t, in.tb, Params{Widths: rangeWidths(t, in.tb, frac)})
				t.Logf("%d fascicles, %d seeds, rows scanned %d (reference %d), %d pair lists",
					len(got.Fascicles), got.SeedsTried(), got.RowsScanned(), want.RowsScanned(), got.PairLists())
				if in.name == "wide" && got.PairLists() != 2*in.tb.NumCols() {
					t.Errorf("%d pair lists on the wide table, want the whole budget of %d", got.PairLists(), 2*in.tb.NumCols())
				}
			})
		}
	}
}

// TestClusterAllocations bounds what Cluster allocates per row and
// column: the uint32 index rows (4 bytes per row and column), at most
// 2·cols pair lists of 4 bytes per row, per-row state and the window
// memo (10 KiB per numeric column). On 32k CDR rows, on a random wide
// table that spends the list budget and on a table of eight large
// clusters it measured 11.3, 13.6 and 12.9 bytes per row and column
// (linux/amd64, go1.24). A memo for every column would take the wide
// table's 52 to 14.8. Index rows of []int (19.4 and 25.8) or a kept copy
// of each numeric column's sorted values (14.4 on CDR) put one of them
// past its bound. Seeds build few more lists than the budget allows even
// there, so the budget itself is checked by TestPairWalkMatchesReference.
//
// It also bounds how many objects Cluster allocates: four slices per
// fascicle, per column its index, pair lists and buffers, and the growth
// of the representatives' tally, at most perFascicle·fascicles +
// perColumn·cols + tally (2082, 1330 and 128 measured against bounds of
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
		{"cdr-32k", datagen.CDR(32000, 1), 12},
		{"wide", wideTable(t, 8000, 8000), 15},
		{"blocks", blockTable(t, 32000), 15},
	} {
		p := Params{Widths: rangeWidths(t, tc.tb, 0.01)}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := Cluster(context.Background(), tc.tb, p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.tb.NumRows()*tc.tb.NumCols())
		objects, limit := after.Mallocs-before.Mallocs, uint64(perFascicle*len(c.Fascicles)+perColumn*tc.tb.NumCols()+tally)
		t.Logf("%s: %.1f bytes per row and column, %d allocations (limit %d), %d fascicles, %d pair lists",
			tc.name, perCell, objects, limit, len(c.Fascicles), c.PairLists())
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
