package codec

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/cart"
	"repro/internal/table"
)

// testTable: y = 3x + noise, c = sign region of x, junk independent.
// All numeric values are float32-exact.
func testTable(rng *rand.Rand, n int) *table.Table {
	schema := table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "y", Kind: table.Numeric},
		{Name: "c", Kind: table.Categorical},
		{Name: "junk", Kind: table.Numeric},
	}
	b := table.MustBuilder(schema)
	for i := 0; i < n; i++ {
		x := float64(rng.Intn(4000)) / 4
		cat := "lo"
		if x > 500 {
			cat = "hi"
		}
		b.MustAppendRow(x, 3*x+float64(rng.Intn(8)), cat, float64(rng.Intn(100)))
	}
	return b.MustBuild()
}

// buildPlan constructs models for y (regression, tol) and c
// (classification, exact) from x, materializing x and junk. tols maps
// each model's target to its tolerance.
func buildPlan(t *testing.T, tb *table.Table, tol float64) (mats []int, models []*cart.Model, tols map[int]float64) {
	t.Helper()
	mats, models, tols, err := buildPlanErr(tb, tol)
	if err != nil {
		t.Fatal(err)
	}
	return mats, models, tols
}

func buildPlanErr(tb *table.Table, tol float64) ([]int, []*cart.Model, map[int]float64, error) {
	cm := cart.NewCostModel(tb)
	my, _, err := cart.Build(context.Background(), tb, 1, []int{0}, tol, cm, cart.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	mc, _, err := cart.Build(context.Background(), tb, 2, []int{0}, 0, cm, cart.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	return []int{0, 3}, []*cart.Model{my, mc}, map[int]float64{1: tol, 2: 0}, nil
}

// scanOutliers returns the outliers of src against each of models, in
// their order, each under the tolerance tols gives its target.
func scanOutliers(src *table.Table, models []*cart.Model, tols map[int]float64) ([][]cart.Outlier, error) {
	outliers := make([][]cart.Outlier, len(models))
	for i, m := range models {
		var err error
		if outliers[i], err = m.ComputeOutliers(context.Background(), src, tols[m.Target], nil); err != nil {
			return nil, err
		}
	}
	return outliers, nil
}

// encode writes a one-segment container for src under a plan, each
// model's outliers found under the tolerance tols gives its target. The
// breakdown covers every byte written.
func encode(w io.Writer, src *table.Table, materialized []int, models []*cart.Model, tols map[int]float64) (Breakdown, error) {
	mb, err := NewModelBlock(src, materialized, models)
	if err != nil {
		return Breakdown{}, err
	}
	outliers, err := scanOutliers(src, mb.Models, tols)
	if err != nil {
		return Breakdown{}, err
	}
	var body bytes.Buffer
	bd, err := mb.EncodeBody(&body, src, outliers)
	if err != nil {
		return bd, err
	}
	cw := NewWriter(w)
	if err := cw.WriteSegment(body.Bytes(), src.NumRows(), ComputeZones(src, nil)); err != nil {
		return bd, err
	}
	block, err := cw.Close(mb)
	bd.ModelBytes += block.ModelBytes
	bd.HeaderBytes = int(cw.Size()) - bd.ModelBytes - bd.TPrimeBytes
	return bd, err
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := testTable(rng, 1000)
	tol := 10.0
	mats, models, tols := buildPlan(t, tb, tol)

	var buf bytes.Buffer
	bd, err := encode(&buf, tb, mats, models, tols)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() != buf.Len() {
		t.Errorf("breakdown total %d != stream length %d", bd.Total(), buf.Len())
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() || back.NumCols() != tb.NumCols() {
		t.Fatalf("shape changed: %dx%d", back.NumRows(), back.NumCols())
	}
	// Materialized columns are exact; y within tol; c exact (tolerance 0).
	diffs, err := table.MaxAbsDiff(tb, back)
	if err != nil {
		t.Fatal(err)
	}
	if diffs[0] != 0 || diffs[3] != 0 {
		t.Errorf("materialized columns differ: %v", diffs)
	}
	if diffs[1] > tol {
		t.Errorf("y error %g > tol %g", diffs[1], tol)
	}
	if diffs[2] != 0 {
		t.Errorf("c error rate %g, want 0", diffs[2])
	}
}

func TestLosslessRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := testTable(rng, 500)
	mats, models, tols := buildPlan(t, tb, 0)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models, tols); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("lossless round trip changed the table")
	}
}

func TestBreakdownSections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := testTable(rng, 800)
	mats, models, tols := buildPlan(t, tb, 10)
	var buf bytes.Buffer
	bd, err := encode(&buf, tb, mats, models, tols)
	if err != nil {
		t.Fatal(err)
	}
	if bd.HeaderBytes <= 0 || bd.ModelBytes <= 0 || bd.TPrimeBytes <= 0 {
		t.Errorf("empty section in breakdown: %+v", bd)
	}
	// Compression must beat the raw representation on this predictable
	// table.
	if bd.Total() >= tb.RawSizeBytes() {
		t.Errorf("compressed %d B >= raw %d B", bd.Total(), tb.RawSizeBytes())
	}
}

func TestValidatePlanErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tb := testTable(rng, 100)
	_, models, tols := buildPlan(t, tb, 10)
	var buf bytes.Buffer

	if _, err := encode(&buf, tb, []int{0, 0, 3}, models[:1], tols); err == nil {
		t.Error("NewModelBlock accepted duplicate materialized attribute")
	}
	if _, err := encode(&buf, tb, []int{0, 99}, models, tols); err == nil {
		t.Error("NewModelBlock accepted out-of-range materialized attribute")
	}
	if _, err := encode(&buf, tb, []int{0, 1, 3}, models, tols); err == nil {
		t.Error("NewModelBlock accepted attribute both materialized and predicted")
	}
	if _, err := encode(&buf, tb, []int{0, 3}, models[:1], tols); err == nil {
		t.Error("NewModelBlock accepted incomplete partition")
	}
	if _, err := encode(&buf, tb, []int{0, 3}, []*cart.Model{models[0], models[0]}, tols); err == nil {
		t.Error("NewModelBlock accepted duplicate model targets")
	}
	// Model using a non-materialized predictor.
	cm := cart.NewCostModel(tb)
	bad, _, err := cart.Build(context.Background(), tb, 1, []int{0}, 5, cm, cart.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encode(&buf, tb, []int{2, 3}, []*cart.Model{bad, mustModel(t, tb, cm, 0)}, tols); err == nil {
		t.Error("NewModelBlock accepted model with non-materialized predictor")
	}
}

func mustModel(t *testing.T, tb *table.Table, cm *cart.CostModel, target int) *cart.Model {
	t.Helper()
	m, _, err := cart.Build(context.Background(), tb, target, []int{3}, 1000, cm, cart.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := testTable(rng, 200)
	mats, models, tols := buildPlan(t, tb, 10)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models, tols); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("Decode accepted empty stream")
	}
	if _, err := Decode(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("Decode accepted truncated stream")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("Decode accepted bad magic")
	}
	// Flipping bytes mid-stream must error or produce a table, never
	// panic.
	for _, pos := range []int{20, len(data) / 2, len(data) - 10} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x5A
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Decode panicked on corruption at %d: %v", pos, r)
				}
			}()
			_, _ = Decode(bytes.NewReader(bad))
		}()
	}
}

func TestAllPredictedExceptOne(t *testing.T) {
	// Extreme plan: only x materialized, y and c and junk predicted (junk
	// with a huge tolerance so a single leaf suffices).
	rng := rand.New(rand.NewSource(6))
	tb := testTable(rng, 300)
	cm := cart.NewCostModel(tb)
	tolY := 12.0
	my, _, err := cart.Build(context.Background(), tb, 1, []int{0}, tolY, cm, cart.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := cart.Build(context.Background(), tb, 2, []int{0}, 0, cm, cart.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mj, _, err := cart.Build(context.Background(), tb, 3, []int{0}, 1000, cm, cart.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, []int{0}, []*cart.Model{my, mc, mj}, map[int]float64{1: tolY, 2: 0, 3: 1000}); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := table.MaxAbsDiff(tb, back)
	if err != nil {
		t.Fatal(err)
	}
	if diffs[1] > tolY || diffs[2] != 0 || diffs[3] > 1000 {
		t.Errorf("bounds violated: %v", diffs)
	}
	if diffs[0] != 0 {
		t.Error("materialized x changed")
	}
}

// failAfter errors once n bytes have been written.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errBoom
	}
	f.written += len(p)
	return len(p), nil
}

var errBoom = errors.New("boom")

func TestEncodePropagatesWriteErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := testTable(rng, 200)
	mats, models, tols := buildPlan(t, tb, 10)
	for _, cut := range []int{0, 10, 200} {
		if _, err := encode(&failAfter{n: cut}, tb, mats, models, tols); err == nil {
			t.Errorf("Encode succeeded with writer failing at %d bytes", cut)
		}
	}
}

func TestDecodeDetectsModelCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb := testTable(rng, 300)
	mats, models, tols := buildPlan(t, tb, 10)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models, tols); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mb, err := NewModelBlock(tb, mats, models)
	if err != nil {
		t.Fatal(err)
	}
	var block bytes.Buffer
	bd, err := mb.Encode(&block)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, block.Bytes())
	if at < 0 {
		t.Fatal("model block not found in the container")
	}
	// Flip a byte in the middle of the trees: the model block's CRC must
	// catch it even if the byte still parses structurally.
	bad := append([]byte(nil), data...)
	bad[at+block.Len()-bd.ModelBytes/2] ^= 0x40
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("Decode accepted a corrupted models section")
	}
}

// TestBodiesShareModelBlock: one model block, written once, decodes
// every body encoded against it, and each body holds its own rows and
// outliers.
func TestBodiesShareModelBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tb := testTable(rng, 600)
	tol := 10.0
	mats, models, tols := buildPlan(t, tb, tol)
	mb, err := NewModelBlock(tb, mats, models)
	if err != nil {
		t.Fatal(err)
	}
	var block bytes.Buffer
	if _, err := mb.Encode(&block); err != nil {
		t.Fatal(err)
	}
	shared, err := DecodeModelBlock(block.Bytes(), DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeModelBlock(append(block.Bytes(), 0), DecodeLimits{}); err == nil {
		t.Error("DecodeModelBlock accepted a trailing byte")
	}
	for _, rows := range [][2]int{{0, 250}, {250, 600}} {
		idx := make([]int, 0, rows[1]-rows[0])
		for r := rows[0]; r < rows[1]; r++ {
			idx = append(idx, r)
		}
		part, err := tb.SelectRows(idx)
		if err != nil {
			t.Fatal(err)
		}
		outliers, err := scanOutliers(part, mb.Models, tols)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		bd, err := mb.EncodeBody(&body, part, outliers)
		if err != nil {
			t.Fatal(err)
		}
		back, n, err := shared.DecodeBody(body.Bytes(), DecodeLimits{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != body.Len() || bd.Total() != body.Len() {
			t.Errorf("body of %d bytes: decoder consumed %d, breakdown says %d", body.Len(), n, bd.Total())
		}
		diffs, err := table.MaxAbsDiff(part, back)
		if err != nil {
			t.Fatal(err)
		}
		if diffs[0] != 0 || diffs[1] > tol || diffs[2] != 0 || diffs[3] != 0 {
			t.Errorf("rows %v: bounds violated: %v", rows, diffs)
		}
	}
}
