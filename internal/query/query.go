// Package query answers aggregate queries over SPARTAN-decompressed
// tables with guaranteed error intervals — the paper's motivating use
// case (§1): analysts accept approximate answers as long as the system
// bounds the approximation error.
//
// Every value in a decompressed table deviates from the original by at
// most its attribute tolerance (numeric) or differs in at most a
// tolerance fraction of rows (categorical). The engine propagates those
// bounds through filtering and aggregation:
//
//   - numeric predicates evaluate to three-valued logic: a row whose
//     reconstructed value is farther than the tolerance from the
//     threshold matches (or not) definitely; otherwise it is uncertain;
//   - categorical predicates are exact per row, but each referenced
//     categorical attribute with tolerance e contributes a global "flip
//     budget" of ⌊e·N⌋ rows whose membership may be wrong;
//   - aggregates return a point estimate plus a closed interval [Lo, Hi]
//     that is guaranteed to contain the value the query would produce on
//     the original table.
//
// Intervals are sound but not always tight (interval arithmetic treats
// SUM and COUNT as independent when dividing for AVG).
package query

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/table"
)

// tri is three-valued predicate logic.
type tri int8

const (
	no tri = iota
	maybe
	yes
)

func triAnd(a, b tri) tri {
	if a < b {
		return a
	}
	return b
}

func triOr(a, b tri) tri {
	if a > b {
		return a
	}
	return b
}

func triNot(a tri) tri {
	switch a {
	case yes:
		return no
	case no:
		return yes
	default:
		return maybe
	}
}

// CmpOp is a numeric comparison operator.
type CmpOp int

const (
	// Lt is <, Le is <=, Gt is >, Ge is >=, Eq is ==, Ne is !=.
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "=="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Predicate filters rows under three-valued logic.
type Predicate interface {
	// fill sets out[r] to the predicate's verdict on row r of t, for
	// every row of t; len(out) is t.NumRows().
	fill(ctx *evalCtx, t *table.Table, out []tri)
	// columns reports the referenced attribute names (for flip budgets
	// and validation).
	columns() []string
}

// evalCtx is what a query's evaluation shares across the tables it runs
// on: one schema, the resolved tolerances and the dataset scope.
type evalCtx struct {
	ts     []*table.Table
	schema table.Schema
	tol    map[string]float64 // resolved tolerance per attribute name
	cols   map[string]int     // name -> column index
	scope  *Scope             // nil when ts is the whole dataset
}

// totalRows is the dataset-wide row count flip budgets scale with: the
// scope's when ts is a pruned subset, the tables' own otherwise.
func (c *evalCtx) totalRows() int {
	if c.scope != nil && c.scope.TotalRows > 0 {
		return c.scope.TotalRows
	}
	n := 0
	for _, t := range c.ts {
		n += t.NumRows()
	}
	return n
}

// colBounds returns the dataset-wide value bounds of a numeric column:
// the scope's when present, the observed min/max over ts otherwise.
func (c *evalCtx) colBounds(column string) (lo, hi float64) {
	if c.scope != nil {
		if b, ok := c.scope.Ranges[column]; ok {
			return b[0], b[1]
		}
	}
	return observedBounds(c.ts, c.cols[column])
}

// observedBounds is the min/max of numeric column ci over the rows of
// every table in ts, as if they were one table: (0, 0) when there are no
// rows.
func observedBounds(ts []*table.Table, ci int) (lo, hi float64) {
	first := true
	for _, t := range ts {
		if t.NumRows() == 0 {
			continue
		}
		l, h := t.Col(ci).MinMax()
		if first || l < lo {
			lo = l
		}
		if first || h > hi {
			hi = h
		}
		first = false
	}
	return lo, hi
}

// Scope widens a query's frame of reference beyond the rows of the table
// it runs on. When the table is a pruned subset of a larger archive,
// soundness demands that quantile tolerances, categorical flip budgets
// and flip-extreme contributions be taken from the whole archive — the
// surviving rows' narrower ranges and smaller count would understate
// the error bounds.
type Scope struct {
	// TotalRows is the archive-wide row count for categorical flip
	// budgets; zero falls back to the row count of the tables queried.
	TotalRows int
	// Ranges maps numeric attribute names to archive-wide [lo, hi] value
	// bounds, used to resolve quantile tolerances and to bound what a
	// flipped-in row could contribute. Attributes absent from the map
	// fall back to their observed range over the tables queried.
	Ranges map[string][2]float64
}

// NumCmp compares a numeric attribute against a constant.
func NumCmp(column string, op CmpOp, value float64) Predicate {
	return &numCmp{column: column, op: op, value: value}
}

type numCmp struct {
	column string
	op     CmpOp
	value  float64
}

func (p *numCmp) columns() []string { return []string{p.column} }

func (p *numCmp) fill(ctx *evalCtx, t *table.Table, out []tri) {
	e := ctx.tol[p.column]
	for r, x := range t.Col(ctx.cols[p.column]).Floats {
		out[r] = p.verdict(x, e)
	}
}

// verdict compares the interval [x−e, x+e], certain to contain the
// original value of a reconstructed x, against the constant.
func (p *numCmp) verdict(x, e float64) tri {
	lo, hi := x-e, x+e
	switch p.op {
	case Lt:
		return intervalCmp(hi < p.value, lo >= p.value)
	case Le:
		return intervalCmp(hi <= p.value, lo > p.value)
	case Gt:
		return intervalCmp(lo > p.value, hi <= p.value)
	case Ge:
		return intervalCmp(lo >= p.value, hi < p.value)
	case Eq:
		if e == 0 {
			return intervalCmp(x == p.value, x != p.value)
		}
		return intervalCmp(false, lo > p.value || hi < p.value)
	case Ne:
		if e == 0 {
			return intervalCmp(x != p.value, x == p.value)
		}
		return intervalCmp(lo > p.value || hi < p.value, false)
	default:
		return maybe
	}
}

func intervalCmp(definitelyTrue, definitelyFalse bool) tri {
	switch {
	case definitelyTrue:
		return yes
	case definitelyFalse:
		return no
	default:
		return maybe
	}
}

// CatIn tests membership of a categorical attribute in a value set.
func CatIn(column string, values ...string) Predicate {
	set := make(map[string]bool, len(values))
	for _, v := range values {
		set[v] = true
	}
	return &catIn{column: column, set: set}
}

// CatEq tests equality of a categorical attribute.
func CatEq(column, value string) Predicate { return CatIn(column, value) }

type catIn struct {
	column string
	set    map[string]bool
}

func (p *catIn) columns() []string { return []string{p.column} }

// fill looks each dictionary code up in the value set once, then
// indexes that verdict table by the column's codes.
func (p *catIn) fill(ctx *evalCtx, t *table.Table, out []tri) {
	col := t.Col(ctx.cols[p.column])
	byCode := make([]tri, len(col.Dict))
	for c, v := range col.Dict {
		if p.set[v] {
			byCode[c] = yes
		}
	}
	for r, c := range col.Codes {
		out[r] = byCode[c]
	}
}

// And conjoins predicates.
func And(ps ...Predicate) Predicate { return &logical{ps: ps, or: false} }

// Or disjoins predicates.
func Or(ps ...Predicate) Predicate { return &logical{ps: ps, or: true} }

type logical struct {
	ps []Predicate
	or bool
}

func (p *logical) columns() []string {
	var out []string
	for _, q := range p.ps {
		out = append(out, q.columns()...)
	}
	return out
}

func (p *logical) fill(ctx *evalCtx, t *table.Table, out []tri) {
	if len(p.ps) == 0 {
		v := yes
		if p.or {
			v = no
		}
		for r := range out {
			out[r] = v
		}
		return
	}
	p.ps[0].fill(ctx, t, out)
	next := make([]tri, len(out))
	for _, q := range p.ps[1:] {
		q.fill(ctx, t, next)
		for r, v := range next {
			if p.or {
				out[r] = triOr(out[r], v)
			} else {
				out[r] = triAnd(out[r], v)
			}
		}
	}
}

// Not negates a predicate.
func Not(p Predicate) Predicate { return &negation{p} }

type negation struct{ p Predicate }

func (n *negation) columns() []string { return n.p.columns() }

func (n *negation) fill(ctx *evalCtx, t *table.Table, out []tri) {
	n.p.fill(ctx, t, out)
	for r, v := range out {
		out[r] = triNot(v)
	}
}

// AggKind selects the aggregate function.
type AggKind int

const (
	// Count counts matching rows; Sum/Avg/Min/Max aggregate a numeric
	// column over them.
	Count AggKind = iota
	Sum
	Avg
	Min
	Max
)

// String names the aggregate.
func (a AggKind) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", int(a))
	}
}

// Query is one aggregate query: Agg(Column) WHERE Where GROUP BY GroupBy.
type Query struct {
	Agg    AggKind
	Column string // aggregated numeric column; empty for Count
	Where  Predicate
	// GroupBy optionally names a categorical column; results carry one
	// group per observed value.
	GroupBy string
}

// Group is the result for one group (or the single implicit group).
type Group struct {
	Key string // group-by value; "" without GROUP BY

	// Value is the point estimate computed from the reconstructed data.
	Value float64
	// Lo and Hi bound the value the same query would produce on the
	// original table.
	Lo, Hi float64

	// Rows counts definite matches; UncertainRows counts rows whose
	// membership depends on within-tolerance perturbations (including the
	// categorical flip budget).
	Rows          int
	UncertainRows int
}

// Result is the full answer.
type Result struct {
	Groups []Group
}

// Run executes the query against a (typically decompressed) table with
// the tolerance vector it was compressed under. A nil Where matches all
// rows. Tolerances in quantile form are resolved against t.
func Run(t *table.Table, tol table.Tolerances, q Query) (*Result, error) {
	return RunScoped(t, tol, q, nil)
}

// RunScoped is Run with an explicit dataset scope: when t is a pruned
// subset of a larger dataset (zone-map-refuted archive segments were
// skipped), scope supplies the dataset-wide row count and value ranges
// so the returned intervals still bound the answer the whole original
// dataset would give. A nil scope behaves exactly like Run. It is
// RunSegments on the one table t.
func RunScoped(t *table.Table, tol table.Tolerances, q Query, scope *Scope) (*Result, error) {
	return RunSegments([]*table.Table{t}, tol, q, scope)
}

// RunSegments runs q over the rows of ts, taken in order, as one table:
// the decoded segments of an archive are queried where they lie, without
// being copied into one. The tables must share one schema, and more
// than one table needs a scope, since segments are parts of a dataset
// that the scope describes. Rows are visited in the order their
// concatenation would hold them, so the result is identical to
// RunScoped on that concatenation under the same scope. Attributes the
// scope leaves out take their observed range over all of ts.
func RunSegments(ts []*table.Table, tol table.Tolerances, q Query, scope *Scope) (*Result, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("query: no table to run on")
	}
	if len(ts) > 1 && scope == nil {
		return nil, fmt.Errorf("query: %d tables need a scope", len(ts))
	}
	schema := ts[0].Schema()
	for i, t := range ts[1:] {
		if !slices.Equal(t.Schema(), schema) {
			return nil, fmt.Errorf("query: table %d's schema differs from table 0's", i+1)
		}
	}
	if tol == nil {
		tol = make(table.Tolerances, len(schema))
	}
	ctx := &evalCtx{
		ts:     ts,
		schema: schema,
		tol:    make(map[string]float64, len(schema)),
		cols:   make(map[string]int, len(schema)),
		scope:  scope,
	}
	for i, a := range schema {
		ctx.cols[a.Name] = i
	}
	resolved, err := resolveScoped(ctx, tol)
	if err != nil {
		return nil, err
	}
	for i, a := range schema {
		ctx.tol[a.Name] = resolved[i].Value
	}
	if err := validate(ctx, q); err != nil {
		return nil, err
	}

	// Categorical flip budget from predicate and group-by columns.
	flips := flipBudget(ctx, q)

	res := &Result{}
	for _, b := range groupRows(ctx, q) {
		g, err := aggregate(ctx, q, b, flips)
		if err != nil {
			return nil, err
		}
		res.Groups = append(res.Groups, g)
	}
	return res, nil
}

// bucket is one group's matching rows: how many match definitely and
// how many uncertainly, and, unless the query only counts, the
// aggregated column's values on those rows in row order.
type bucket struct {
	key              string
	def, unc         int
	defVals, uncVals []float64
}

// groupRows evaluates q.Where over every table of ctx and puts each row
// it does not refute into a bucket. Without GROUP BY there is exactly one
// bucket, empty when nothing matches (an empty selection still yields
// one group). With it there is one bucket per key of a matching row,
// sorted by key, and a row finds its bucket through a slice indexed by
// its group code; codes that share a string share a bucket.
func groupRows(ctx *evalCtx, q Query) []*bucket {
	valCol, groupCol := -1, -1
	if q.Agg != Count {
		valCol = ctx.cols[q.Column]
	}
	if q.GroupBy != "" {
		groupCol = ctx.cols[q.GroupBy]
	}
	all := &bucket{}
	byKey := map[string]*bucket{}
	var match []tri
	for _, t := range ctx.ts {
		if q.Where != nil {
			match = slices.Grow(match[:0], t.NumRows())[:t.NumRows()]
			q.Where.fill(ctx, t, match)
		}
		var vals []float64
		if valCol >= 0 {
			vals = t.Col(valCol).Floats
		}
		var codes []int32
		var dict []string
		var byCode []*bucket
		if groupCol >= 0 {
			codes, dict = t.Col(groupCol).Codes, t.Col(groupCol).Dict
			byCode = make([]*bucket, len(dict))
		}
		for r := 0; r < t.NumRows(); r++ {
			m := yes
			if q.Where != nil {
				m = match[r]
			}
			if m == no {
				continue
			}
			b := all
			if groupCol >= 0 {
				c := codes[r]
				if b = byCode[c]; b == nil {
					if b = byKey[dict[c]]; b == nil {
						b = &bucket{key: dict[c]}
						byKey[dict[c]] = b
					}
					byCode[c] = b
				}
			}
			if m == yes {
				b.def++
				if vals != nil {
					b.defVals = append(b.defVals, vals[r])
				}
			} else {
				b.unc++
				if vals != nil {
					b.uncVals = append(b.uncVals, vals[r])
				}
			}
		}
	}
	if groupCol < 0 {
		return []*bucket{all}
	}
	out := make([]*bucket, 0, len(byKey))
	for _, b := range byKey {
		out = append(out, b)
	}
	slices.SortFunc(out, func(a, b *bucket) int { return strings.Compare(a.key, b.key) })
	return out
}

// resolveScoped converts quantile tolerances to absolute bounds against
// the scope's dataset-wide ranges where known, the tables' observed
// ranges otherwise. Resolving against the widest range keeps the
// absolute bound identical to what an unpruned run would use. A
// categorical tolerance becomes its Bound: with per-class budgets, up to
// that fraction of all rows may be misclassified.
func resolveScoped(ctx *evalCtx, tol table.Tolerances) (table.Tolerances, error) {
	ranges := make([]float64, len(ctx.schema))
	for i, a := range ctx.schema {
		if a.Kind == table.Numeric {
			lo, hi := ctx.colBounds(a.Name)
			ranges[i] = hi - lo
		}
	}
	resolved, err := tol.ResolveRanges(ctx.schema, ranges)
	for i := range resolved {
		resolved[i].Value = resolved[i].Bound()
	}
	return resolved, err
}

func validate(ctx *evalCtx, q Query) error {
	check := func(name string) error {
		if _, ok := ctx.cols[name]; !ok {
			return fmt.Errorf("query: unknown column %q", name)
		}
		return nil
	}
	if q.Agg != Count {
		if q.Column == "" {
			return fmt.Errorf("query: %v requires a column", q.Agg)
		}
		if err := check(q.Column); err != nil {
			return err
		}
		if ctx.kind(q.Column) != table.Numeric {
			return fmt.Errorf("query: %v needs a numeric column, %q is categorical", q.Agg, q.Column)
		}
	}
	if q.GroupBy != "" {
		if err := check(q.GroupBy); err != nil {
			return err
		}
		if ctx.kind(q.GroupBy) != table.Categorical {
			return fmt.Errorf("query: GROUP BY needs a categorical column, %q is numeric", q.GroupBy)
		}
	}
	if q.Where != nil {
		for _, name := range q.Where.columns() {
			if err := check(name); err != nil {
				return err
			}
		}
		// NumCmp on a categorical column or CatIn on a numeric one would
		// read the wrong slice; reject them up front with a clean error.
		if err := checkPredicateKinds(ctx, q.Where); err != nil {
			return err
		}
	}
	return nil
}

// kind is the attribute kind of a column known to exist.
func (c *evalCtx) kind(column string) table.Kind { return c.schema[c.cols[column]].Kind }

func checkPredicateKinds(ctx *evalCtx, p Predicate) error {
	switch v := p.(type) {
	case *numCmp:
		if ctx.kind(v.column) != table.Numeric {
			return fmt.Errorf("query: numeric comparison on categorical column %q", v.column)
		}
	case *catIn:
		if ctx.kind(v.column) != table.Categorical {
			return fmt.Errorf("query: categorical predicate on numeric column %q", v.column)
		}
	case *logical:
		for _, q := range v.ps {
			if err := checkPredicateKinds(ctx, q); err != nil {
				return err
			}
		}
	case *negation:
		return checkPredicateKinds(ctx, v.p)
	}
	return nil
}

// flipBudget sums ⌊e·N⌋ over the categorical attributes the query's
// membership decisions depend on: each such attribute may be wrong in up
// to that many rows, each of which could enter or leave the selection (or
// switch groups).
func flipBudget(ctx *evalCtx, q Query) int {
	seen := map[string]bool{}
	total := 0
	addCol := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if ctx.kind(name) == table.Categorical {
			total += int(ctx.tol[name] * float64(ctx.totalRows()))
		}
	}
	if q.Where != nil {
		for _, name := range q.Where.columns() {
			addCol(name)
		}
	}
	if q.GroupBy != "" {
		addCol(q.GroupBy)
	}
	return total
}

// aggregate computes the point estimate and the sound interval for one
// group.
func aggregate(ctx *evalCtx, q Query, b *bucket, flips int) (Group, error) {
	g := Group{Key: b.key, Rows: b.def, UncertainRows: b.unc + flips}
	switch q.Agg {
	case Count:
		g.Value = float64(b.def)
		g.Lo = math.Max(0, float64(b.def-flips))
		g.Hi = float64(b.def + b.unc + flips)
	case Sum:
		sumInterval(ctx, q.Column, b.defVals, b.uncVals, flips, &g)
	case Avg:
		var s Group
		sumInterval(ctx, q.Column, b.defVals, b.uncVals, flips, &s)
		cntLo := math.Max(0, float64(b.def-flips))
		cntHi := float64(b.def + b.unc + flips)
		if b.def == 0 {
			g.Value = math.NaN()
		} else {
			g.Value = s.Value / float64(b.def)
		}
		g.Lo, g.Hi = divideInterval(s.Lo, s.Hi, cntLo, cntHi)
	case Min:
		extremeInterval(ctx, q.Column, b.defVals, b.uncVals, flips, true, &g)
	case Max:
		extremeInterval(ctx, q.Column, b.defVals, b.uncVals, flips, false, &g)
	default:
		return g, fmt.Errorf("query: unknown aggregate %d", q.Agg)
	}
	return g, nil
}

// sumInterval fills g with the SUM estimate and bounds over the definite
// values def and the uncertain values unc: definite rows contribute
// their full value interval; uncertain rows contribute only when that
// widens the bound; flip-budget rows may add or remove the most extreme
// definite contributions. With flips it sorts def in place.
func sumInterval(ctx *evalCtx, column string, def, unc []float64, flips int, g *Group) {
	e := ctx.tol[column]
	sum, lo, hi := 0.0, 0.0, 0.0
	for _, v := range def {
		sum += v
		lo += v - e
		hi += v + e
	}
	for _, v := range unc {
		lo += math.Min(0, v-e)
		hi += math.Max(0, v+e)
	}
	// Categorical flips: up to `flips` arbitrary rows of the dataset may
	// enter, and up to `flips` definite members may leave. Bound with the
	// dataset-wide extremes for additions and the most extreme definite
	// values for removals.
	if flips > 0 {
		tLo, tHi := ctx.colBounds(column)
		sort.Float64s(def)
		for i := 0; i < flips; i++ {
			lo += math.Min(0, tLo-e)
			hi += math.Max(0, tHi+e)
			// Removal of the largest/smallest member values.
			if i < len(def) {
				hiVal := def[len(def)-1-i]
				loVal := def[i]
				lo -= math.Max(0, hiVal+e) // removing a large positive shrinks the sum
				hi -= math.Min(0, loVal-e) // removing a negative grows the sum
			}
		}
	}
	g.Value = sum
	g.Lo = lo
	g.Hi = hi
}

// divideInterval returns sound bounds for s/c with s ∈ [sLo, sHi] and
// c ∈ [cLo, cHi], c ≥ 0. A zero possible count yields infinite bounds.
func divideInterval(sLo, sHi, cLo, cHi float64) (float64, float64) {
	if cLo <= 0 {
		if cHi <= 0 {
			return math.NaN(), math.NaN()
		}
		// Count could be arbitrarily small but at least 1 row.
		cLo = 1
	}
	candidates := []float64{sLo / cLo, sLo / cHi, sHi / cLo, sHi / cHi}
	lo, hi := candidates[0], candidates[0]
	for _, c := range candidates[1:] {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return lo, hi
}

// extremeInterval fills g for MIN (isMin) or MAX over the definite
// values def and the uncertain values unc. With flips it sorts def in
// place.
func extremeInterval(ctx *evalCtx, column string, def, unc []float64, flips int, isMin bool, g *Group) {
	e := ctx.tol[column]
	if len(def) == 0 && len(unc) == 0 {
		g.Value, g.Lo, g.Hi = math.NaN(), math.NaN(), math.NaN()
		return
	}
	best := math.Inf(1)
	if !isMin {
		best = math.Inf(-1)
	}
	for _, v := range def {
		if isMin {
			best = math.Min(best, v)
		} else {
			best = math.Max(best, v)
		}
	}
	g.Value = best
	if len(def) == 0 {
		g.Value = math.NaN()
	}
	// Bounds: uncertain/flipped rows can push the extreme outward but a
	// definite extreme limits how far inward it can be.
	outward := best
	for _, v := range unc {
		if isMin {
			outward = math.Min(outward, v)
		} else {
			outward = math.Max(outward, v)
		}
	}
	if flips > 0 {
		tLo, tHi := ctx.colBounds(column)
		if isMin {
			outward = math.Min(outward, tLo)
		} else {
			outward = math.Max(outward, tHi)
		}
	}
	if flips > 0 && len(def) > 0 {
		sort.Float64s(def)
	}
	if isMin {
		g.Lo = outward - e
		g.Hi = best + e
		if flips > 0 && len(def) > 0 {
			// The current minimum row might be a flip mistake; the true
			// minimum could be as high as the (flips+1)-th smallest.
			g.Hi = def[min(flips, len(def)-1)] + e
		}
	} else {
		g.Lo = best - e
		g.Hi = outward + e
		if flips > 0 && len(def) > 0 {
			g.Lo = def[max(len(def)-1-flips, 0)] - e
		}
	}
	if math.IsNaN(g.Value) {
		g.Lo, g.Hi = math.NaN(), math.NaN()
	}
}
