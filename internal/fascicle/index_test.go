package fascicle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/floats"
	"repro/internal/table"
)

// referenceOrder is the comparison sort buildIndex's radix sort must
// reproduce: rows stably ordered by value under <.
func referenceOrder(vals []float64) []uint32 {
	order := make([]uint32, len(vals))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return vals[order[i]] < vals[order[j]] })
	return order
}

// oracleValue draws a raw float64 (not float32-exact) from a pool that
// forces heavy ties, both zeros, negatives and extreme magnitudes.
func oracleValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(5) - 2) // heavy ties around zero
	case 3:
		return []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
			-math.SmallestNonzeroFloat64, 1e300, -1e-300}[rng.Intn(6)]
	case 4:
		return -rng.Float64() * 1e6
	default:
		return rng.NormFloat64() * 1000
	}
}

// TestBuildIndexMatchesReference checks the radix-sorted numeric index
// and the counting-sorted categorical buckets against the comparison
// sort and per-code row lists on random tables built through table.New.
func TestBuildIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "c", Kind: table.Categorical},
		{Name: "y", Kind: table.Numeric},
	}
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 4099} {
		for trial := 0; trial < 4; trial++ {
			t.Run(fmt.Sprintf("n=%d/%d", n, trial), func(t *testing.T) {
				x, y := make([]float64, n), make([]float64, n)
				dict := []string{"a", "b", "c", "d", "e"}[:1+rng.Intn(5)]
				codes := make([]int32, n)
				for r := 0; r < n; r++ {
					x[r] = oracleValue(rng)
					// y shares its high key bytes across rows, so the radix
					// sort skips passes.
					y[r] = 1024 + float64(rng.Intn(64))
					codes[r] = int32(rng.Intn(len(dict)))
				}
				tb, err := table.New(schema, []*table.Column{
					{Kind: table.Numeric, Floats: x},
					{Kind: table.Categorical, Codes: codes, Dict: dict},
					{Kind: table.Numeric, Floats: y},
				})
				if err != nil {
					t.Fatal(err)
				}
				idx := buildIndex(tb)
				for _, a := range []int{0, 2} {
					vals := tb.Col(a).Floats
					want := referenceOrder(vals)
					if !slices.Equal(idx[a].sortedRows, want) {
						t.Fatalf("column %d: sortedRows = %v, want %v", a, idx[a].sortedRows, want)
					}
				}
				ci := idx[1]
				if len(ci.codeStart) != len(dict)+1 || ci.codeStart[len(dict)] != n {
					t.Fatalf("codeStart = %v for %d codes over %d rows", ci.codeStart, len(dict), n)
				}
				for c := range dict {
					want := make([]uint32, 0, n)
					for r, code := range codes {
						if int(code) == c {
							want = append(want, uint32(r))
						}
					}
					got := ci.sortedRows[ci.codeStart[c]:ci.codeStart[c+1]]
					if !slices.Equal(got, want) {
						t.Fatalf("bucket %d = %v, want %v", c, got, want)
					}
				}
			})
		}
	}
}

// TestRepresentativeZeroSign pins which zero represents a fascicle whose
// members mix -0 and +0: they count as one value, and the representative
// carries the sign of the last zero in row order.
func TestRepresentativeZeroSign(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		vals  []float64
		zeros []int
		want  float64
	}{
		{[]float64{negZero, 0, negZero, 0, 5}, []int{0, 1, 2, 3}, 0},
		{[]float64{0, negZero, 0, negZero, 5}, []int{0, 1, 2, 3}, negZero},
		{[]float64{negZero, 5, 0, 5, negZero}, []int{0, 2, 4}, negZero},
	} {
		tb, err := table.New(table.Schema{{Name: "x", Kind: table.Numeric}},
			[]*table.Column{{Kind: table.Numeric, Floats: tc.vals}})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Cluster(tb, Params{K: 1, MinSize: 2, MaxFascicles: 1, Widths: []float64{0}})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Fascicles) != 1 || !slices.Equal(c.Fascicles[0].Rows, tc.zeros) {
			t.Fatalf("%v: fascicles %+v, want one over rows %v", tc.vals, c.Fascicles, tc.zeros)
		}
		if got := c.Fascicles[0].NumReps[0]; !floats.SameBits(got, tc.want) {
			t.Errorf("%v: representative %g (sign bit %v), want sign bit %v", tc.vals, got, math.Signbit(got), math.Signbit(tc.want))
		}
	}
}

// TestValueWindowMatchesSearch checks valueWindow's interleaved binary
// searches against sort.Search over radix-sorted columns with heavy ties,
// both zeros and extremes, for bounds drawn from the column and around it.
func TestValueWindowMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		vals := make([]float64, n)
		for r := range vals {
			vals[r] = oracleValue(rng)
		}
		rows := referenceOrder(vals)
		bound := func() float64 {
			if n > 0 && rng.Intn(2) == 0 {
				return vals[rng.Intn(n)]
			}
			return oracleValue(rng)
		}
		for trial := 0; trial < 200; trial++ {
			lo, hi := bound(), bound()
			if hi < lo {
				lo, hi = hi, lo
			}
			wantFrom := sort.Search(n, func(i int) bool { return vals[rows[i]] >= lo })
			wantTo := sort.Search(n, func(i int) bool { return vals[rows[i]] > hi })
			if from, to := valueWindow(vals, rows, lo, hi); from != wantFrom || to != wantTo {
				t.Fatalf("n=%d [%g, %g]: window [%d, %d), want [%d, %d)", n, lo, hi, from, to, wantFrom, wantTo)
			}
		}
	}
}
