package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, eps float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Errorf("%s = %g, want %g (±%g)", msg, got, want, eps)
	}
}

func TestEntropy(t *testing.T) {
	approx(t, Entropy([]int{0, 1, 0, 1}, 2), 1, 1e-12, "H(fair coin)")
	approx(t, Entropy([]int{0, 0, 0, 0}, 2), 0, 1e-12, "H(constant)")
	approx(t, Entropy(nil, 2), 0, 1e-12, "H(empty)")
	approx(t, Entropy([]int{0, 1, 2, 3}, 4), 2, 1e-12, "H(uniform 4)")
}

func TestMutualInformationIdentical(t *testing.T) {
	x := []int{0, 1, 0, 1, 1, 0}
	// I(X;X) = H(X)
	approx(t, MutualInformation(x, x, 2, 2), Entropy(x, 2), 1e-12, "I(X;X)")
}

func TestMutualInformationIndependent(t *testing.T) {
	// Perfectly balanced independent design: MI must be exactly 0.
	var x, y []int
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x = append(x, i%2)
			y = append(y, j%2)
		}
	}
	approx(t, MutualInformation(x, y, 2, 2), 0, 1e-12, "I(indep)")
}

func TestMutualInformationNonNegativeProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n)%100 + 1
		x := make([]int, m)
		y := make([]int, m)
		for i := range x {
			x[i] = rng.Intn(4)
			y[i] = rng.Intn(3)
		}
		mi := MutualInformation(x, y, 4, 3)
		hx := Entropy(x, 4)
		hy := Entropy(y, 3)
		// 0 <= I(X;Y) <= min(H(X), H(Y))
		return mi >= 0 && mi <= math.Min(hx, hy)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMutualInformationSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]int, n)
		y := make([]int, n)
		for i := range x {
			x[i] = rng.Intn(3)
			y[i] = rng.Intn(5)
		}
		a := MutualInformation(x, y, 3, 5)
		b := MutualInformation(y, x, 5, 3)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConditionalMutualInformation(t *testing.T) {
	// Y = X exactly, Z constant: I(X;Y|Z) = H(X).
	x := []int{0, 1, 0, 1, 1, 1, 0, 0}
	z := make([]int, len(x))
	approx(t, ConditionalMutualInformation(x, x, z, 2, 2, 1), Entropy(x, 2), 1e-12, "I(X;X|const)")

	// Y = Z, X independent: conditioning on Z removes all information.
	y := []int{0, 0, 1, 1, 0, 0, 1, 1}
	approx(t, ConditionalMutualInformation(x, y, y, 2, 2, 2),
		0, 1e-9, "I(X;Z|Z)")
}

func TestConditionalMIScreensChain(t *testing.T) {
	// Chain X -> Z -> Y where Y == Z == X: I(X;Y) > 0 but I(X;Y|Z) = 0.
	n := 200
	rng := rand.New(rand.NewSource(3))
	x := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(2)
	}
	z := append([]int(nil), x...)
	y := append([]int(nil), z...)
	if MutualInformation(x, y, 2, 2) <= 0.5 {
		t.Fatal("setup: marginal MI should be large")
	}
	approx(t, ConditionalMutualInformation(x, y, z, 2, 2, 2), 0, 1e-9, "I(X;Y|Z) on chain")
}

// TestConditionalMIIsDeterministic: the strata's terms are summed in one
// order, so repeated calls return the same float64. A sum in map order
// differs in its last bits from call to call on this many strata, which
// can flip a G-test at its threshold.
func TestConditionalMIIsDeterministic(t *testing.T) {
	const n, strata = 6000, 300
	rng := rand.New(rand.NewSource(5))
	x, y, z := make([]int, n), make([]int, n), make([]int, n)
	for i := range x {
		x[i], y[i], z[i] = rng.Intn(4), rng.Intn(5), rng.Intn(strata)
	}
	want := math.Float64bits(ConditionalMutualInformation(x, y, z, 4, 5, strata))
	for i := 0; i < 20; i++ {
		if got := math.Float64bits(ConditionalMutualInformation(x, y, z, 4, 5, strata)); got != want {
			t.Fatalf("call %d returned %#x, first call %#x", i+2, got, want)
		}
	}
}

func TestCompositeCodes(t *testing.T) {
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	codes, card := CompositeCodes([][]int{a, b})
	if card != 4 {
		t.Fatalf("card = %d, want 4", card)
	}
	seen := map[int]bool{}
	for _, c := range codes {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Errorf("codes = %v, want 4 distinct", codes)
	}

	// Empty input.
	c2, card2 := CompositeCodes(nil)
	if c2 != nil || card2 != 1 {
		t.Errorf("CompositeCodes(nil) = %v, %d; want nil, 1", c2, card2)
	}

	// Only observed combinations get codes.
	a3 := []int{0, 1, 0, 1}
	b3 := []int{0, 1, 0, 1}
	_, card3 := CompositeCodes([][]int{a3, b3})
	if card3 != 2 {
		t.Errorf("card = %d, want 2 (only 2 observed combos)", card3)
	}

	// Codes are keyed by all 32 bits: v and v+2^24 stay apart.
	if c4, card4 := CompositeCodes([][]int{{0, 1 << 24}}); card4 != 2 || c4[0] == c4[1] {
		t.Errorf("CompositeCodes({0, 1<<24}) = %v, %d; want 2 distinct codes", c4, card4)
	}
}

func TestDiscretizerEquiDepth(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	d := NewDiscretizer(values, 4)
	if d.Bins() != 4 {
		t.Fatalf("Bins = %d, want 4", d.Bins())
	}
	counts := make([]int, 4)
	for _, v := range values {
		counts[d.Code(v)]++
	}
	for b, c := range counts {
		if c != 25 {
			t.Errorf("bin %d has %d values, want 25", b, c)
		}
	}
}

func TestDiscretizerSkewedMergesBins(t *testing.T) {
	values := make([]float64, 100)
	for i := 10; i < 100; i++ {
		values[i] = 1 // 90% mass at a single point
	}
	d := NewDiscretizer(values, 10)
	if d.Bins() >= 10 {
		t.Errorf("Bins = %d; skewed data should merge duplicate quantiles", d.Bins())
	}
	for _, v := range values {
		if c := d.Code(v); c < 0 || c >= d.Bins() {
			t.Fatalf("Code(%g) = %d out of range", v, c)
		}
	}
}

func TestDiscretizerEdgeCases(t *testing.T) {
	d := NewDiscretizer(nil, 5)
	if d.Bins() != 1 {
		t.Errorf("empty data Bins = %d, want 1", d.Bins())
	}
	if d.Code(42) != 0 {
		t.Errorf("Code on binless discretizer = %d, want 0", d.Code(42))
	}
	d1 := NewDiscretizer([]float64{3, 3, 3}, 4)
	if d1.Bins() != 1 {
		t.Errorf("constant data Bins = %d, want 1", d1.Bins())
	}
	// bins < 1 clamps to 1.
	d2 := NewDiscretizer([]float64{1, 2}, 0)
	if d2.Bins() != 1 {
		t.Errorf("bins=0 gives Bins = %d, want 1", d2.Bins())
	}
}

func TestDiscretizerCodeAllMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, 50)
		for i := range values {
			values[i] = rng.Float64() * 100
		}
		d := NewDiscretizer(values, 6)
		codes := d.CodeAll(values)
		for i, v := range values {
			for j, w := range values {
				if v < w && codes[i] > codes[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MutualInformation did not panic on length mismatch")
		}
	}()
	MutualInformation([]int{0}, []int{0, 1}, 2, 2)
}
