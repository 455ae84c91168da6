// Package fascicle implements row-wise semantic compression with fascicles
// (Jagadish, Madar, Ng, VLDB 1999), the baseline SPARTAN compares against
// (paper §4, Figure 5). SPARTAN's own RowAggregator (paper §3.4) does not
// use it: core snaps each materialized numeric cell to a 2e grid, which
// keeps the paper's split-value rule without clustering rows (DESIGN.md
// §1).
//
// A fascicle is a set of rows that agree, within a compactness tolerance,
// on k "compact" attributes: a numeric attribute is compact in a row set
// when its value range has width at most 2e (so the range midpoint is
// within e of every member); a categorical attribute is compact when all
// rows share one value. Compact attributes are stored once per fascicle.
//
// The lattice search of the original Single-k algorithm is replaced by a
// deterministic seeded greedy growth (DESIGN.md §4): take the first
// unassigned row as seed, find for every attribute the rows that fit a
// compactness window around the seed, keep the k best-populated
// attributes, and emit the rows matching all k.
package fascicle

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/floats"
	"repro/internal/table"
)

// Params configures fascicle computation, mirroring the knobs of the
// Single-k algorithm.
type Params struct {
	// K is the number of compact attributes per fascicle. Zero defaults to
	// two-thirds of the attribute count.
	K int
	// MaxFascicles bounds the number of fascicles (the paper's P,
	// default 500).
	MaxFascicles int
	// MinSize is the minimum fascicle row count (the paper's m); smaller
	// candidate groups stay uncompressed. Default max(2, 0.01% of rows).
	MinSize int
	// Widths holds the per-attribute compactness tolerance: for a numeric
	// attribute i the value range may be at most 2·Widths[i] (the paper
	// sets the compactness tolerance to twice the error tolerance, i.e.
	// Widths[i] = eᵢ). Categorical attributes are compact only when equal,
	// regardless of width; their entry must be 0.
	Widths []float64
}

func (p Params) withDefaults(t *table.Table) (Params, error) {
	if len(p.Widths) != t.NumCols() {
		return p, fmt.Errorf("fascicle: %d widths for %d attributes", len(p.Widths), t.NumCols())
	}
	for a, w := range p.Widths {
		if !(w >= 0) {
			return p, fmt.Errorf("fascicle: attribute %d has width %g, want ≥ 0", a, w)
		}
	}
	if p.K <= 0 {
		p.K = 2 * t.NumCols() / 3
		if p.K < 1 {
			p.K = 1
		}
	}
	if p.K > t.NumCols() {
		p.K = t.NumCols()
	}
	if p.MaxFascicles <= 0 {
		p.MaxFascicles = 500
	}
	if p.MinSize <= 0 {
		p.MinSize = t.NumRows() / 10000
		if p.MinSize < 2 {
			p.MinSize = 2
		}
	}
	return p, nil
}

// Fascicle is one row cluster: Rows lists the member row indices (in
// increasing order), CompactAttrs the attributes stored once, and Reps the
// representative value for each compact attribute (numeric midpoint or
// categorical code, by attribute kind).
type Fascicle struct {
	Rows         []int
	CompactAttrs []int
	NumReps      []float64 // representative per compact numeric attribute
	CatReps      []int32   // representative per compact categorical attribute
}

// Clustering is the result of fascicle detection over a table.
type Clustering struct {
	Fascicles []Fascicle
	// Leftover lists rows assigned to no fascicle; they are stored
	// verbatim.
	Leftover []int
	params   Params
}

// Cluster detects fascicles greedily. The result is deterministic for a
// given table and parameters. A table of more than 2^32 rows is refused
// with an error before anything is allocated: the index numbers rows in
// uint32.
//
// Index construction is O(n·cols): a stable radix sort makes at most 8
// byte passes over each numeric column (fewer when every value shares a
// key byte) and a counting sort makes one pass over each categorical
// column. Each seed then sizes every window, a categorical one as its
// code's bucket and a numeric one by binary search, O(log n), keeps the
// K most populated and walks the sparsest of them: its unassigned rows
// that fit every other chosen window are the candidate members.
func Cluster(t *table.Table, p Params) (*Clustering, error) {
	if uint64(t.NumRows()) > 1<<32 {
		return nil, fmt.Errorf("fascicle: %d rows, at most 2^32 supported", t.NumRows())
	}
	p, err := p.withDefaults(t)
	if err != nil {
		return nil, err
	}
	g := newGrower(t, p)
	n := t.NumRows()
	fascicles := make([]Fascicle, 0, p.MaxFascicles)

	// Seeds that fail to grow are skipped permanently; cap total attempts
	// so degenerate tables (nothing clusters) stay linear.
	maxTries := 4*p.MaxFascicles + 64
	seed, tries := 0, 0
	for len(fascicles) < p.MaxFascicles && tries < maxTries {
		for seed < n && g.assigned[seed] {
			seed++
		}
		if seed >= n {
			break
		}
		tries++
		chosen := g.choose(seed)
		f, ok := g.keep(chosen, g.candidates(chosen))
		if !ok {
			seed++ // this seed stays a leftover unless a later fascicle absorbs it
			continue
		}
		for _, r := range f.Rows {
			g.assigned[r] = true
		}
		fascicles = append(fascicles, f)
	}
	free := 0
	for _, done := range g.assigned {
		if !done {
			free++
		}
	}
	leftover := make([]int, 0, free)
	for r := 0; r < n; r++ {
		if !g.assigned[r] {
			leftover = append(leftover, r)
		}
	}
	return &Clustering{Fascicles: fascicles, Leftover: leftover, params: p}, nil
}

// colIndex accelerates window membership queries. sortedRows lists every
// row in stable ascending order of its value (numeric) or code
// (categorical), so equal values keep ascending row order.
type colIndex struct {
	sortedRows []uint32
	// codeStart delimits a categorical column's buckets: the rows with
	// code c are sortedRows[codeStart[c]:codeStart[c+1]].
	codeStart []int
}

// buildIndex sorts every numeric column with a stable LSD radix sort on
// order-preserving keys and buckets every categorical column by a
// counting sort on its codes.
func buildIndex(t *table.Table) []colIndex {
	n := t.NumRows()
	idx := make([]colIndex, t.NumCols())
	var keys, spareKeys []uint64
	var spareRows []uint32
	for a := range idx {
		col := t.Col(a)
		if col.Kind != table.Numeric {
			idx[a] = bucketCodes(col.Codes, len(col.Dict))
			continue
		}
		if keys == nil {
			keys, spareKeys, spareRows = make([]uint64, n), make([]uint64, n), make([]uint32, n)
		}
		for r, v := range col.Floats {
			keys[r] = sortKey(v)
		}
		rows := make([]uint32, n)
		for r := range rows {
			rows[r] = uint32(r)
		}
		// The sorted order may land in either buffer; the other becomes
		// the next column's scratch.
		rows, spareRows = radixSort(keys, spareKeys, rows, spareRows)
		idx[a] = colIndex{sortedRows: rows}
	}
	return idx
}

// sortKey maps a finite float64 to a uint64 whose unsigned order is the
// float's < order: flip every bit of a negative value, only the sign bit
// of a positive one. -0 takes +0's key because -0 < +0 is false, so a
// stable sort must keep the two zeros in row order.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b == 1<<63 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort stably sorts rows by keys, one byte per pass from the least
// significant, skipping every byte in which all keys agree. keys and
// rows are permuted in step through the spare buffers of equal length;
// it returns the buffer holding the sorted rows and the one left spare.
func radixSort(keys, spareKeys []uint64, rows, spareRows []uint32) (sorted, spare []uint32) {
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (differ>>shift)&0xff == 0 {
			continue
		}
		var start [256]int
		for _, k := range keys {
			start[(k>>shift)&0xff]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for i, k := range keys {
			d := (k >> shift) & 0xff
			spareKeys[start[d]] = k
			spareRows[start[d]] = rows[i]
			start[d]++
		}
		keys, spareKeys = spareKeys, keys
		rows, spareRows = spareRows, rows
	}
	return rows, spareRows
}

// bucketCodes counting-sorts rows by categorical code; codes are already
// validated against the dictionary size by table.New.
func bucketCodes(codes []int32, dictSize int) colIndex {
	start := make([]int, dictSize+1)
	for _, c := range codes {
		start[c+1]++
	}
	for c := 1; c <= dictSize; c++ {
		start[c] += start[c-1]
	}
	next := make([]int, dictSize)
	copy(next, start)
	rows := make([]uint32, len(codes))
	for r, c := range codes {
		rows[next[c]] = uint32(r)
		next[c]++
	}
	return colIndex{sortedRows: rows, codeStart: start}
}

// valueWindow returns the index range [from, to) of rows, stably sorted
// by vals, whose values lie in [lo, hi]. -0 and +0 share a sort key and
// compare equal, so both predicates stay monotone. The two binary
// searches share one loop: their loads do not depend on each other, so
// the processor overlaps them, which repays the extra load through rows.
func valueWindow(vals []float64, rows []uint32, lo, hi float64) (from, to int) {
	n := len(rows)
	if n == 0 {
		return 0, 0
	}
	// Each answer lies in [from, from+n] and [to, to+n].
	for n > 1 {
		half := n / 2
		if vals[rows[from+half-1]] < lo {
			from += half
		}
		if vals[rows[to+half-1]] <= hi {
			to += half
		}
		n -= half
	}
	if vals[rows[from]] < lo {
		from++
	}
	if vals[rows[to]] <= hi {
		to++
	}
	return from, to
}

// attrMatch records, for one attribute, the compactness window around the
// current seed: sortedRows[from:to] of the attribute's index, which may
// include already-assigned rows. A categorical window is the seed code's
// bucket, so from and to are codeStart[seedC] and codeStart[seedC+1].
type attrMatch struct {
	attr     int
	from, to int
	isCat    bool
	lo, hi   float64   // numeric window bounds
	vals     []float64 // the numeric column
	codes    []int32   // the categorical column
	seedC    int32     // seed's code (categorical attributes)
}

// count is the window's population estimate.
func (am *attrMatch) count() int { return am.to - am.from }

// fits reports whether row r lies in the window.
func (am *attrMatch) fits(r uint32) bool {
	if am.isCat {
		return am.codes[r] == am.seedC
	}
	v := am.vals[r]
	return v >= am.lo && v <= am.hi
}

// grower grows fascicles from seeds over one table. Its buffers are
// reused from seed to seed; only an accepted fascicle's slices are
// allocated fresh.
type grower struct {
	p        Params
	idx      []colIndex
	assigned []bool

	matches  []attrMatch // every attribute's window around the seed
	order    []int       // indices into matches of the chosen windows
	chosen   []attrMatch
	rows     []int
	reps     []float64
	counts   map[float64]int // distinct value -> position in tally
	distinct []float64       // distinct values in first-seen order
	tally    []int           // occurrences of distinct[i]
}

func newGrower(t *table.Table, p Params) *grower {
	matches := make([]attrMatch, t.NumCols())
	for a := range matches {
		col := t.Col(a)
		matches[a] = attrMatch{attr: a, isCat: col.Kind != table.Numeric, vals: col.Floats, codes: col.Codes}
	}
	return &grower{
		p:        p,
		idx:      buildIndex(t),
		assigned: make([]bool, t.NumRows()),
		matches:  matches,
		order:    make([]int, 0, p.K),
		chosen:   make([]attrMatch, 0, p.K),
		reps:     make([]float64, 0, p.K),
		counts:   make(map[float64]int, 16),
	}
}

// choose sizes every attribute's compactness window around seed and
// returns the K most populated, in descending count order. A numeric
// window may sit anywhere as long as it has width ≤ 2·w and contains the
// seed; it tries the three natural anchorings and keeps the most
// populated one, the first on a tie. Counts come from the sorted index
// and may include already-assigned rows — a deliberate approximation
// that keeps sizing O(log n).
func (g *grower) choose(seed int) []attrMatch {
	for a := range g.matches {
		am := &g.matches[a]
		if am.isCat {
			am.seedC = am.codes[seed]
			am.from, am.to = g.idx[a].codeStart[am.seedC], g.idx[a].codeStart[am.seedC+1]
			continue
		}
		s, w, rows := am.vals[seed], g.p.Widths[a], g.idx[a].sortedRows
		best := -1
		for _, anchor := range [3][2]float64{{s - 2*w, s}, {s - w, s + w}, {s, s + 2*w}} {
			if from, to := valueWindow(am.vals, rows, anchor[0], anchor[1]); to-from > best {
				best = to - from
				am.from, am.to, am.lo, am.hi = from, to, anchor[0], anchor[1]
			}
		}
	}
	return g.top()
}

// top copies the K most populated of matches into chosen, in descending
// count order and, on a tie, in attribute order: the first K of a stable
// sort by descending count. It insertion-sorts indices, so a seed moves
// K windows, not every attribute's.
func (g *grower) top() []attrMatch {
	k, order := g.p.K, g.order[:0]
	for i := range g.matches {
		c := g.matches[i].count()
		j := len(order)
		if j == k {
			if c <= g.matches[order[k-1]].count() {
				continue
			}
			j--
		} else {
			order = append(order, 0)
		}
		for ; j > 0 && g.matches[order[j-1]].count() < c; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	chosen := g.chosen[:0]
	for _, i := range order {
		chosen = append(chosen, g.matches[i])
	}
	g.order, g.chosen = order, chosen
	return chosen
}

// candidates returns the unassigned rows of the sparsest chosen window,
// the last, that fit every other chosen window, in index order. Those are
// checked from the back: the tightest window rejects most rows and ends
// the check soonest.
func (g *grower) candidates(chosen []attrMatch) []int {
	last := len(chosen) - 1
	sparse := &chosen[last]
	rows := g.rows[:0]
	for _, r := range g.idx[sparse.attr].sortedRows[sparse.from:sparse.to] {
		if g.assigned[r] {
			continue
		}
		ok := true
		for j := last - 1; j >= 0; j-- {
			if !chosen[j].fits(r) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, int(r))
		}
	}
	g.rows = rows
	return rows
}

// keep turns the candidate members rows of the chosen windows into a
// fascicle: representatives, then the members they cover.
func (g *grower) keep(chosen []attrMatch, rows []int) (Fascicle, bool) {
	p := g.p
	if len(rows) < p.MinSize {
		return Fascicle{}, false
	}
	slices.Sort(rows)
	slices.SortFunc(chosen, func(x, y attrMatch) int { return cmp.Compare(x.attr, y.attr) })

	// Representatives: the most frequent member value (ties broken low).
	// Using an existing domain value — rather than the range midpoint —
	// means quantization never introduces new distinct values, so the
	// downstream dictionary coder only ever benefits. Members farther than
	// the width from the representative are dropped below, keeping the
	// error bound valid for every member by construction. (Values are
	// float32-exact already, so no wire-format rounding applies.)
	reps := g.reps[:0]
	for _, am := range chosen {
		if am.isCat {
			reps = append(reps, 0)
			continue
		}
		// Values built through table.Builder are float32-exact already;
		// rounding here guards tables assembled via table.New from raw
		// float64 columns (the member-validation pass below drops any row
		// the rounding pushes out of bounds).
		reps = append(reps, floats.F32(g.mode(am.vals, rows)))
	}
	g.reps = reps
	valid := rows[:0]
	for _, r := range rows {
		ok := true
		for ci, am := range chosen {
			if am.isCat {
				continue
			}
			if math.Abs(reps[ci]-am.vals[r]) > p.Widths[am.attr] {
				ok = false
				break
			}
		}
		if ok {
			valid = append(valid, r)
		}
	}
	if len(valid) < p.MinSize {
		return Fascicle{}, false
	}
	f := Fascicle{
		Rows:         append(make([]int, 0, len(valid)), valid...),
		CompactAttrs: make([]int, len(chosen)),
		NumReps:      make([]float64, len(chosen)),
		CatReps:      make([]int32, len(chosen)),
	}
	for ci, am := range chosen {
		f.CompactAttrs[ci] = am.attr
		if am.isCat {
			f.CatReps[ci] = am.seedC
		} else {
			f.NumReps[ci] = reps[ci]
		}
	}
	return f, true
}

// mode returns the most frequent of vals[r] over rows, the lowest on a
// tie. The map keys a value by ==, so -0 and +0 share one entry; like the
// key of a map[float64]int tally, whose every assignment rewrites the
// stored float key, that entry reports the zero the rows reach last.
func (g *grower) mode(vals []float64, rows []int) float64 {
	clear(g.counts)
	g.distinct, g.tally = g.distinct[:0], g.tally[:0]
	for _, r := range rows {
		v := vals[r]
		if i, ok := g.counts[v]; ok {
			g.distinct[i] = v
			g.tally[i]++
			continue
		}
		g.counts[v] = len(g.tally)
		g.distinct = append(g.distinct, v)
		g.tally = append(g.tally, 1)
	}
	bestV, bestC := math.Inf(1), -1
	for i, v := range g.distinct {
		if c := g.tally[i]; c > bestC || (c == bestC && v < bestV) {
			bestV, bestC = v, c
		}
	}
	return bestV
}

// CompressedValueCount returns the number of values the clustering stores,
// the unit the paper uses in Example 2.1: one per compact attribute per
// fascicle, plus one per non-compact attribute per member row, plus full
// rows for leftovers.
func (c *Clustering) CompressedValueCount(t *table.Table) int {
	total := len(c.Leftover) * t.NumCols()
	for i := range c.Fascicles {
		f := &c.Fascicles[i]
		total += len(f.CompactAttrs)
		total += (t.NumCols() - len(f.CompactAttrs)) * len(f.Rows)
	}
	return total
}
