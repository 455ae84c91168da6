package cart

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/floats"
	"repro/internal/table"
)

// paperTable reproduces the 8-tuple table of Figure 1(a).
func paperTable(t testing.TB) *table.Table {
	t.Helper()
	schema := table.Schema{
		{Name: "age", Kind: table.Numeric},
		{Name: "salary", Kind: table.Numeric},
		{Name: "assets", Kind: table.Numeric},
		{Name: "credit", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	rows := [][]any{
		{30.0, 90000.0, 200000.0, "good"},
		{50.0, 110000.0, 250000.0, "good"},
		{70.0, 35000.0, 125000.0, "poor"},
		{75.0, 15000.0, 100000.0, "poor"},
		{25.0, 50000.0, 75000.0, "good"},
		{35.0, 76000.0, 75000.0, "good"},
		{45.0, 100000.0, 175000.0, "poor"},
		{55.0, 80000.0, 150000.0, "good"},
	}
	for _, r := range rows {
		b.MustAppendRow(r...)
	}
	return b.MustBuild()
}

const (
	colAge = iota
	colSalary
	colAssets
	colCredit
)

// modelValues counts the "values" stored by a model the way Example 1.1 of
// the paper counts them: tree nodes (labels + split values) plus outliers.
func modelValues(m *Model, outliers []Outlier) int {
	return m.NumNodes() + len(outliers)
}

// TestPaperExample11Classification mirrors Figure 1(b): predicting credit
// from salary reduces its storage from 8 values to at most 4 (the paper's
// count: 2 leaf labels + 1 split + 1 outlier).
func TestPaperExample11Classification(t *testing.T) {
	tb := paperTable(t)
	cm := NewCostModel(tb)
	m, _, err := Build(context.Background(), tb, colCredit, []int{colSalary}, 0, cm,
		Config{MinLeafRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	outliers, err := m.ComputeOutliers(context.Background(), tb, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := modelValues(m, outliers); got > 4 {
		t.Errorf("credit model stores %d values, paper achieves 4\n%s", got, m)
	}
	// Reconstruction must be exact (tolerance 0 means all misclassified
	// rows are stored).
	rec := reconstruct(m, tb, outliers)
	for r := 0; r < tb.NumRows(); r++ {
		if rec.Codes[r] != tb.Col(colCredit).Codes[r] {
			t.Errorf("row %d: reconstructed credit %d != %d",
				r, rec.Codes[r], tb.Col(colCredit).Codes[r])
		}
	}
}

// TestPaperExample11Regression mirrors the assets regression tree: with
// tolerance 25,000 and predictors salary and age, assets storage drops
// from 8 values to at most 6 (paper: 3 labels + 2 splits + 1 outlier).
func TestPaperExample11Regression(t *testing.T) {
	tb := paperTable(t)
	cm := NewCostModel(tb)
	m, _, err := Build(context.Background(), tb, colAssets, []int{colAge, colSalary}, 25000, cm,
		Config{MinLeafRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	outliers, err := m.ComputeOutliers(context.Background(), tb, 25000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := modelValues(m, outliers); got > 6 {
		t.Errorf("assets model stores %d values, paper achieves 6\n%s", got, m)
	}
	// Every reconstructed value is within tolerance.
	rec := reconstruct(m, tb, outliers)
	for r := 0; r < tb.NumRows(); r++ {
		if d := math.Abs(rec.Floats[r] - tb.Float(r, colAssets)); d > 25000 {
			t.Errorf("row %d: |err| = %g > 25000", r, d)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	tb := paperTable(t)
	cm := NewCostModel(tb)
	if _, _, err := Build(context.Background(), tb, colAssets, nil, 1, cm, Config{}); err == nil {
		t.Error("Build accepted empty candidate set")
	}
	if _, _, err := Build(context.Background(), tb, colAssets, []int{colAssets}, 1, cm, Config{}); err == nil {
		t.Error("Build accepted target as its own predictor")
	}
	if _, _, err := Build(context.Background(), tb, colAssets, []int{99}, 1, cm, Config{}); err == nil {
		t.Error("Build accepted out-of-range candidate")
	}
	empty, err := tb.SelectRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Build(context.Background(), empty, colAssets, []int{colAge}, 1, cm, Config{}); err == nil {
		t.Error("Build accepted empty sample")
	}
	for _, target := range []int{colAssets, colCredit} {
		for _, tol := range []float64{-1, math.NaN(), math.Inf(1)} {
			if _, _, err := Build(context.Background(), tb, target, []int{colAge}, tol, cm, Config{}); err == nil {
				t.Errorf("Build accepted tolerance %g for target %d", tol, target)
			}
		}
	}
}

// TestBuildCancelled checks that a cancelled context abandons a build of
// either target kind under either pruning mode with the context's error.
func TestBuildCancelled(t *testing.T) {
	tb := correlatedTable(rand.New(rand.NewSource(5)), 300)
	cm := NewCostModel(tb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, target := range []int{1, 2} {
		for _, mode := range []PruneMode{PruneIntegrated, PruneAfter} {
			m, _, err := Build(ctx, tb, target, []int{0, 3}, 0, cm, Config{Prune: mode})
			if !errors.Is(err, context.Canceled) || m != nil {
				t.Errorf("target %d, mode %d: Build = %v, %v; want nil, context.Canceled", target, mode, m, err)
			}
		}
	}
}

// correlatedTable has y strongly determined by x (plus noise below eps),
// a categorical c determined by x's sign region, and an unrelated column.
func correlatedTable(rng *rand.Rand, n int) *table.Table {
	schema := table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "y", Kind: table.Numeric},
		{Name: "c", Kind: table.Categorical},
		{Name: "junk", Kind: table.Numeric},
	}
	b := table.MustBuilder(schema)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		y := 3*x + rng.Float64()*2
		c := "low"
		if x > 50 {
			c = "high"
		}
		b.MustAppendRow(x, y, c, rng.Float64()*1000)
	}
	return b.MustBuild()
}

// guaranteeHolds reports whether m, after its outlier scan of tb under
// tol, reconstructs every row of a numeric target within tol, or
// mismatches at most ⌊tol·n⌋ rows of a categorical one.
func guaranteeHolds(t *testing.T, m *Model, tb *table.Table, tol float64) bool {
	t.Helper()
	outliers, err := m.ComputeOutliers(context.Background(), tb, tol, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := reconstruct(m, tb, outliers)
	if m.TargetKind == table.Numeric {
		for r := 0; r < tb.NumRows(); r++ {
			if math.Abs(rec.Floats[r]-tb.Float(r, m.Target)) > tol {
				return false
			}
		}
		return true
	}
	wrong := 0
	for r := 0; r < tb.NumRows(); r++ {
		if rec.Codes[r] != tb.Code(r, m.Target) {
			wrong++
		}
	}
	return wrong <= int(tol*float64(tb.NumRows()))
}

func TestRegressionErrorGuaranteeProperty(t *testing.T) {
	f := func(seed int64, tolByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := correlatedTable(rng, 300)
		tol := 1 + float64(tolByte)/8 // tolerance in [1, ~33]
		cm := NewCostModel(tb)
		m, _, err := Build(context.Background(), tb, 1, []int{0, 3}, tol, cm, Config{})
		if err != nil {
			return false
		}
		outliers, err := m.ComputeOutliers(context.Background(), tb, tol, nil)
		if err != nil {
			return false
		}
		rec := reconstruct(m, tb, outliers)
		for r := 0; r < tb.NumRows(); r++ {
			if math.Abs(rec.Floats[r]-tb.Float(r, 1)) > tol+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestClassificationErrorGuaranteeProperty(t *testing.T) {
	f := func(seed int64, tolByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := correlatedTable(rng, 300)
		tol := float64(tolByte%50) / 100 // tolerance in [0, 0.49]
		cm := NewCostModel(tb)
		m, _, err := Build(context.Background(), tb, 2, []int{0, 3}, tol, cm, Config{})
		if err != nil {
			return false
		}
		outliers, err := m.ComputeOutliers(context.Background(), tb, tol, nil)
		if err != nil {
			return false
		}
		rec := reconstruct(m, tb, outliers)
		wrong := 0
		for r := 0; r < tb.NumRows(); r++ {
			if rec.Codes[r] != tb.Col(2).Codes[r] {
				wrong++
			}
		}
		return float64(wrong) <= tol*float64(tb.NumRows())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSampleBuildFullApply(t *testing.T) {
	// Build on a sample, apply to the full table: the guarantee must hold
	// on every full-table row because violations become outliers.
	rng := rand.New(rand.NewSource(4))
	full := correlatedTable(rng, 5000)
	sample := full.Sample(600, rng)
	cm := NewCostModel(full)
	tol := 5.0
	m, _, err := Build(context.Background(), sample, 1, []int{0}, tol, cm, Config{FullRows: full.NumRows()})
	if err != nil {
		t.Fatal(err)
	}
	outliers, err := m.ComputeOutliers(context.Background(), full, tol, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := reconstruct(m, full, outliers)
	for r := 0; r < full.NumRows(); r++ {
		if math.Abs(rec.Floats[r]-full.Float(r, 1)) > tol {
			t.Fatalf("row %d violates tolerance after outlier pass", r)
		}
	}
	// The strong x→y correlation means few outliers.
	if frac := float64(len(outliers)) / float64(full.NumRows()); frac > 0.1 {
		t.Errorf("outlier fraction %.2f unexpectedly high", frac)
	}
}

func TestUsedPredictorsFiltersJunk(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb := correlatedTable(rng, 500)
	cm := NewCostModel(tb)
	m, _, err := Build(context.Background(), tb, 1, []int{0, 3}, 2, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.UsedPredictors() {
		if p == 1 {
			t.Error("target appears as predictor")
		}
	}
	// x must be used; junk may appear occasionally but x is essential.
	foundX := false
	for _, p := range m.UsedPredictors() {
		if p == 0 {
			foundX = true
		}
	}
	if !foundX {
		t.Errorf("predictor x unused; tree:\n%s", m)
	}
}

func TestCategoricalPredictorSplit(t *testing.T) {
	// y is determined by a categorical attribute: the tree must use the
	// category split form and reach zero outliers.
	schema := table.Schema{
		{Name: "region", Kind: table.Categorical},
		{Name: "rate", Kind: table.Numeric},
	}
	b := table.MustBuilder(schema)
	rates := map[string]float64{"east": 10, "west": 50, "north": 90, "south": 130}
	rng := rand.New(rand.NewSource(3))
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 400; i++ {
		reg := regions[rng.Intn(4)]
		b.MustAppendRow(reg, rates[reg]+rng.Float64())
	}
	tb := b.MustBuild()
	cm := NewCostModel(tb)
	m, _, err := Build(context.Background(), tb, 1, []int{0}, 1, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	outliers, err := m.ComputeOutliers(context.Background(), tb, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outliers) != 0 {
		t.Errorf("outliers = %d, want 0:\n%s", len(outliers), m)
	}
	if m.NumLeaves() != 4 {
		t.Errorf("leaves = %d, want 4 (one per region)", m.NumLeaves())
	}
}

func TestLosslessToleranceZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tb := correlatedTable(rng, 300)
	cm := NewCostModel(tb)
	m, _, err := Build(context.Background(), tb, 1, []int{0}, 0, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	outliers, err := m.ComputeOutliers(context.Background(), tb, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := reconstruct(m, tb, outliers)
	for r := 0; r < tb.NumRows(); r++ {
		if !floats.SameBits(rec.Floats[r], tb.Float(r, 1)) {
			t.Fatalf("lossless reconstruction differs at row %d", r)
		}
	}
}

func TestPruneModesAgreeOnGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tb := correlatedTable(rng, 600)
	cm := NewCostModel(tb)
	for target, tol := range map[int]float64{1: 3, 2: 0.05} {
		for _, mode := range []PruneMode{PruneIntegrated, PruneAfter, PruneNone} {
			m, _, err := Build(context.Background(), tb, target, []int{0, 3}, tol, cm, Config{Prune: mode})
			if err != nil {
				t.Fatal(err)
			}
			if !guaranteeHolds(t, m, tb, tol) {
				t.Errorf("target %d, mode %d: reconstruction violates tolerance %g", target, mode, tol)
			}
		}
	}
}

func TestIntegratedPruneYieldsSmallerOrEqualTree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tb := correlatedTable(rng, 600)
	cm := NewCostModel(tb)
	for target, tol := range map[int]float64{1: 5, 2: 0.05} {
		build := func(mode PruneMode) (*Model, float64) {
			m, cost, err := Build(context.Background(), tb, target, []int{0, 3}, tol, cm, Config{Prune: mode})
			if err != nil {
				t.Fatal(err)
			}
			return m, cost
		}
		mi, costI := build(PruneIntegrated)
		mn, _ := build(PruneNone)
		if mi.NumNodes() > mn.NumNodes() {
			t.Errorf("target %d: integrated prune grew a bigger tree (%d > %d nodes)",
				target, mi.NumNodes(), mn.NumNodes())
		}
		ma, costA := build(PruneAfter)
		// Both pruned variants optimize the same cost; allow small slack
		// for path-dependent growth differences.
		if costI > costA*1.25+64 {
			t.Errorf("target %d: integrated cost %.0f much worse than post-prune cost %.0f (trees: %d vs %d nodes)",
				target, costI, costA, mi.NumNodes(), ma.NumNodes())
		}
	}
}

// TestSplitSearchAllocationIgnoresDictionarySize builds trees over a
// predictor whose dictionary has 2^18 entries of which the sample sees
// 64. The split search's per-node maps must be sized by the node's rows,
// not by the dictionary: sized by the dictionary, these builds allocate
// about 0.6 GB.
func TestSplitSearchAllocationIgnoresDictionarySize(t *testing.T) {
	const rows, seen, dict = 2000, 64, 1 << 18
	const limit = 32 << 20
	rng := rand.New(rand.NewSource(9))
	id := &table.Column{Kind: table.Categorical, Codes: make([]int32, rows), Dict: make([]string, dict)}
	for i := range id.Dict {
		id.Dict[i] = strconv.Itoa(i)
	}
	y := &table.Column{Kind: table.Numeric, Floats: make([]float64, rows)}
	class := &table.Column{Kind: table.Categorical, Codes: make([]int32, rows), Dict: make([]string, dict)}
	copy(class.Dict, id.Dict)
	for r := 0; r < rows; r++ {
		g := rng.Intn(seen)
		id.Codes[r] = int32(g * (dict / seen))
		y.Floats[r] = float64(g)
		class.Codes[r] = int32(g % 7)
	}
	tb, err := table.New(table.Schema{
		{Name: "id", Kind: table.Categorical},
		{Name: "y", Kind: table.Numeric},
		{Name: "class", Kind: table.Categorical},
	}, []*table.Column{id, y, class})
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCostModel(tb)
	for _, target := range []int{1, 2} {
		var m *Model
		alloc := allocDelta(func() {
			m, _, err = Build(context.Background(), tb, target, []int{0}, 0, cm, Config{})
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.NumNodes() < 3 {
			t.Errorf("target %d: %d-node tree never searched a split below the root", target, m.NumNodes())
		}
		if alloc > limit {
			t.Errorf("target %d: Build allocated %d MB for a %d-node tree, want < %d MB",
				target, alloc>>20, m.NumNodes(), limit>>20)
		}
	}
}

func TestModelEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tb := correlatedTable(rng, 400)
	cm := NewCostModel(tb)
	for _, target := range []int{1, 2} {
		tol := 2.0
		if tb.Attr(target).Kind == table.Categorical {
			tol = 0.05
		}
		m, _, err := Build(context.Background(), tb, target, []int{0, 3}, tol, cm, Config{})
		if err != nil {
			t.Fatal(err)
		}
		outliers, err := m.ComputeOutliers(context.Background(), tb, tol, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := EncodeOutliers(&buf, m.TargetKind, outliers); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Target != m.Target || got.TargetKind != m.TargetKind {
			t.Fatalf("decoded header mismatch: %+v vs %+v", got, m)
		}
		decoded, err := DecodeOutliers(&buf, m.TargetKind, tb.NumRows(), len(tb.Col(m.Target).Dict))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(decoded, outliers) {
			t.Fatalf("outliers %v, want %v", decoded, outliers)
		}
		// Predictions must agree row by row.
		for r := 0; r < tb.NumRows(); r++ {
			f1, c1 := predictRef(m, tb, r)
			f2, c2 := predictRef(got, tb, r)
			if !floats.SameBits(f1, f2) || c1 != c2 {
				t.Fatalf("row %d prediction differs after round trip", r)
			}
		}
	}
}

func TestDecodeModelRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tb := correlatedTable(rng, 200)
	cm := NewCostModel(tb)
	m, _, err := Build(context.Background(), tb, 1, []int{0}, 2, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := DecodeModel(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("DecodeModel accepted truncated stream")
	}
	if _, err := DecodeModel(bytes.NewReader(nil)); err == nil {
		t.Error("DecodeModel accepted empty stream")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/3] = 0xFD // scramble a tag/structure byte
	// Either an error or a structurally valid (possibly different) model is
	// acceptable; a panic is not.
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("DecodeModel panicked on corrupted input: %v", r)
			}
		}()
		_, _ = DecodeModel(bytes.NewReader(bad))
	}()
}

// wire builds model and outlier streams byte by byte.
type wire struct{ bytes.Buffer }

func (w *wire) uvarint(vs ...uint64) *wire {
	for _, v := range vs {
		w.Write(binary.AppendUvarint(nil, v))
	}
	return w
}

func (w *wire) b1(bs ...byte) *wire {
	w.Write(bs)
	return w
}

// allocDelta runs f and reports how many bytes it allocated.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeModelRejectsHostileWireValues hand-crafts model and outlier
// streams whose varints are structurally valid but semantically hostile,
// one per guard on a wire count, index or code in serialize.go, and one
// per chunked-growth clamp (a count within its guard that no payload
// backs). Each must fail with an error naming the violated bound (or the
// truncation), without panicking and without allocating the claim.
func TestDecodeModelRejectsHostileWireValues(t *testing.T) {
	model := func(data []byte) error {
		_, err := DecodeModel(bytes.NewReader(data))
		return err
	}
	outliers := func(kind table.Kind, rows, dictSize int) func([]byte) error {
		return func(data []byte) error {
			_, err := DecodeOutliers(bytes.NewReader(data), kind, rows, dictSize)
			return err
		}
	}
	num, cat := byte(table.Numeric), byte(table.Categorical)
	f32 := []byte{0, 0, 0, 0}
	inf32 := binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(math.Inf(1))))
	nan32 := binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(math.NaN())))
	deep := new(wire).uvarint(0).b1(num)
	for i := 0; i <= maxTreeDepth+1; i++ {
		deep.b1(tagInternalNum).uvarint(0).b1(f32...)
	}
	cases := []struct {
		name    string
		decode  func([]byte) error
		data    *wire
		wantErr string
	}{
		// A delta of 2^63 wraps int64 negative: without its bound the row
		// would sail under the `row >= rows` check.
		{"huge row delta", outliers(table.Numeric, 1<<40, 0),
			new(wire).uvarint(1, 1<<63).b1(f32...), "implausible outlier row delta 9223372036854775808"},
		{"outlier count beyond rows", outliers(table.Numeric, 10, 0),
			new(wire).uvarint(1 << 22), "4194304 outliers for 10 rows"},
		{"outlier count beyond 2^30", outliers(table.Numeric, 1<<40, 0),
			new(wire).uvarint(1 << 31), "2147483648 outliers for 1099511627776 rows"},
		{"outlier count without payload", outliers(table.Numeric, 1<<40, 0),
			new(wire).uvarint(1 << 20), "reading outlier row: EOF"},
		{"outlier row beyond rows", outliers(table.Numeric, 7, 0),
			new(wire).uvarint(1, 7).b1(f32...), "outlier row 7 beyond 7 rows"},
		{"outlier code outside dictionary", outliers(table.Categorical, 10, 3),
			new(wire).uvarint(1, 0, 3), "outlier code 3 outside dictionary of 3"},
		// A decode that does not reconstruct the target still checks its
		// outliers, so a non-finite value is refused here, not by the
		// table it would have been patched into.
		{"outlier value not finite", outliers(table.Numeric, 10, 0),
			new(wire).uvarint(1, 0).b1(nan32...), "outlier value NaN is not finite"},
		{"huge target attribute", model,
			new(wire).uvarint(1<<40).b1(num, tagLeafNum).b1(f32...), "implausible target attribute 1099511627776"},
		{"huge split attribute", model,
			new(wire).uvarint(0).b1(num, tagInternalNum).uvarint(1 << 40), "implausible split attribute 1099511627776"},
		{"leaf code overflows int32", model,
			new(wire).uvarint(0).b1(cat, tagLeafCat).uvarint(1 << 33), "leaf code 8589934592 overflows int32"},
		{"split set too large", model,
			new(wire).uvarint(0).b1(cat, tagInternalCat).uvarint(0, 1<<21), "implausible split set size 2097152"},
		{"split set without payload", model,
			new(wire).uvarint(0).b1(cat, tagInternalCat).uvarint(0, 1<<20), "EOF"},
		{"split code overflows int32", model,
			new(wire).uvarint(0).b1(cat, tagInternalCat).uvarint(0, 1, 1<<33), "split code 8589934592 overflows int32"},
		{"tree too deep", model, deep, "tree deeper than 512"},
		{"leaf value not finite", model,
			new(wire).uvarint(0).b1(num, tagLeafNum).b1(inf32...), "numeric leaf value +Inf is not finite"},
	}
	// A model or outlier list decodes in kilobytes here. 1 MB leaves
	// room and still catches a split set allocated at its full 2^20-entry
	// claim (4 MB) or an outlier list at its 2^20-entry claim (24 MB).
	const allocLimit = 1 << 20
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			delta := allocDelta(func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoder panicked: %v", r)
					}
				}()
				err = tc.decode(tc.data.Bytes())
			})
			if err == nil {
				t.Fatal("decoder accepted a hostile stream")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if delta > allocLimit {
				t.Errorf("decoder allocated %d bytes rejecting the stream, want < %d", delta, allocLimit)
			}
		})
	}
}

func TestEncodeRejectsUnorderedOutliers(t *testing.T) {
	outliers := []Outlier{{Row: 5, Num: 1}, {Row: 2, Num: 2}}
	if err := EncodeOutliers(&bytes.Buffer{}, table.Numeric, outliers); err == nil {
		t.Error("EncodeOutliers accepted out-of-order outliers")
	}
}

func TestContainsCode(t *testing.T) {
	set := []int32{2, 5, 9}
	for _, c := range set {
		if !containsCode(set, c) {
			t.Errorf("containsCode missed %d", c)
		}
	}
	for _, c := range []int32{0, 3, 10} {
		if containsCode(set, c) {
			t.Errorf("containsCode false positive for %d", c)
		}
	}
	if containsCode(nil, 1) {
		t.Error("containsCode on empty set")
	}
}

func TestCostModel(t *testing.T) {
	tb := paperTable(t)
	cm := NewCostModel(tb)
	if !floats.SameBits(cm.ValueBits(colAge), 32) {
		t.Errorf("numeric ValueBits = %g, want 32", cm.ValueBits(colAge))
	}
	if !floats.SameBits(cm.ValueBits(colCredit), 1) {
		t.Errorf("2-value categorical ValueBits = %g, want 1", cm.ValueBits(colCredit))
	}
	if !floats.SameBits(cm.MaterCost(colAge), 8*32) {
		t.Errorf("MaterCost = %g, want 256", cm.MaterCost(colAge))
	}
	// Outlier = row id (3 bits for 8 rows) + value.
	if !floats.SameBits(cm.OutlierBits(colAge), 3+32) {
		t.Errorf("OutlierBits = %g, want 35", cm.OutlierBits(colAge))
	}
	m := &Model{Target: colAge, TargetKind: table.Numeric,
		Root: &Node{Leaf: true, NumValue: 1}}
	if got := cm.ModelTreeBits(m); !floats.SameBits(got, cm.LeafBits(colAge)) {
		t.Errorf("ModelTreeBits(single leaf) = %g, want %g", got, cm.LeafBits(colAge))
	}
}

func TestDepthAndCounts(t *testing.T) {
	leaf := &Node{Leaf: true}
	m := &Model{Root: leaf, TargetKind: table.Numeric}
	if m.Depth() != 1 || m.NumNodes() != 1 || m.NumLeaves() != 1 {
		t.Error("single-leaf counts wrong")
	}
	m2 := &Model{TargetKind: table.Numeric, Root: &Node{
		SplitAttr: 0, Left: &Node{Leaf: true}, Right: &Node{
			SplitAttr: 1, Left: &Node{Leaf: true}, Right: &Node{Leaf: true}},
	}}
	if m2.Depth() != 3 || m2.NumNodes() != 5 || m2.NumLeaves() != 3 {
		t.Errorf("depth=%d nodes=%d leaves=%d, want 3/5/3",
			m2.Depth(), m2.NumNodes(), m2.NumLeaves())
	}
}
