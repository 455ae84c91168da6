// Package stats provides the statistical substrate for SPARTAN's
// DependencyFinder: entropy, (conditional) mutual information, composite
// codes for conditioning sets, and equi-depth discretization of numeric
// attributes. All quantities operate on integer-coded columns so the
// Bayesian-network builder can treat numeric and categorical attributes
// uniformly after discretization.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Log2 of x with 0·log0 = 0 convention handled by callers.
func log2(x float64) float64 { return math.Log2(x) }

// Entropy returns the Shannon entropy (bits) of an integer-coded vector
// whose values lie in [0, card).
func Entropy(codes []int, card int) float64 {
	if len(codes) == 0 {
		return 0
	}
	counts := make([]int, card)
	for _, c := range codes {
		counts[c]++
	}
	n := float64(len(codes))
	h := 0.0
	for _, cnt := range counts {
		if cnt == 0 {
			continue
		}
		p := float64(cnt) / n
		h -= p * log2(p)
	}
	return h
}

// MutualInformation returns I(X;Y) in bits for two equal-length
// integer-coded vectors with cardinalities cx and cy.
func MutualInformation(x, y []int, cx, cy int) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	joint := make([]int, cx*cy)
	mx := make([]int, cx)
	my := make([]int, cy)
	for i := range x {
		joint[x[i]*cy+y[i]]++
		mx[x[i]]++
		my[y[i]]++
	}
	n := float64(len(x))
	mi := 0.0
	for xi := 0; xi < cx; xi++ {
		if mx[xi] == 0 {
			continue
		}
		for yi := 0; yi < cy; yi++ {
			c := joint[xi*cy+yi]
			if c == 0 {
				continue
			}
			pxy := float64(c) / n
			px := float64(mx[xi]) / n
			py := float64(my[yi]) / n
			mi += pxy * log2(pxy/(px*py))
		}
	}
	if mi < 0 { // numerical noise
		mi = 0
	}
	return mi
}

// ConditionalMutualInformation returns I(X;Y|Z) in bits, where z is an
// integer-coded conditioning vector with values in [0, cz). Z is typically a
// composite code built with CompositeCodes from several conditioning
// attributes.
func ConditionalMutualInformation(x, y, z []int, cx, cy, cz int) float64 {
	if len(x) != len(y) || len(x) != len(z) {
		panic(fmt.Sprintf("stats: length mismatch %d/%d/%d", len(x), len(y), len(z)))
	}
	if len(x) == 0 {
		return 0
	}
	// Group rows by z value and sum the per-stratum weighted MI in
	// ascending z, so every call adds the same terms in the same order.
	strata := make([][]int, cz)
	for i, zi := range z {
		strata[zi] = append(strata[zi], i)
	}
	n := float64(len(x))
	cmi := 0.0
	xs := make([]int, 0, 64)
	ys := make([]int, 0, 64)
	for _, rows := range strata {
		if len(rows) == 0 {
			continue
		}
		xs = xs[:0]
		ys = ys[:0]
		for _, r := range rows {
			xs = append(xs, x[r])
			ys = append(ys, y[r])
		}
		cmi += float64(len(rows)) / n * MutualInformation(xs, ys, cx, cy)
	}
	return cmi
}

// CompositeCodes combines several integer-coded columns into a single code
// per row, with the combined cardinality returned. Only combinations that
// actually occur receive codes, in order of first occurrence, so codes are
// dense in [0, card) and the cardinality equals the number of distinct
// observed tuples (important for CI tests on samples). Column values must
// fit in 32 bits, as dictionary codes do.
func CompositeCodes(cols [][]int) (codes []int, card int) {
	if len(cols) == 0 {
		return nil, 1
	}
	n := len(cols[0])
	codes = make([]int, n)
	index := make(map[string]int)
	key := make([]byte, 0, len(cols)*4)
	for i := 0; i < n; i++ {
		key = key[:0]
		for _, c := range cols {
			key = binary.LittleEndian.AppendUint32(key, uint32(c[i]))
		}
		k := string(key)
		code, ok := index[k]
		if !ok {
			code = len(index)
			index[k] = code
		}
		codes[i] = code
	}
	return codes, len(index)
}

// Discretizer maps numeric values into equi-depth bins. Bin boundaries are
// chosen from sorted sample quantiles; values map to the bin whose
// right-open interval contains them.
type Discretizer struct {
	// Cuts holds the right-open upper boundaries of all bins except the
	// last; a value v maps to the first bin i with v < Cuts[i], else to
	// bin len(Cuts).
	Cuts []float64
}

// NewDiscretizer builds an equi-depth discretizer with at most bins bins
// from the given values. Duplicate quantiles are merged, so the effective
// number of bins can be smaller for skewed data.
func NewDiscretizer(values []float64, bins int) *Discretizer {
	if bins < 1 {
		bins = 1
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cuts := make([]float64, 0, bins-1)
	n := len(sorted)
	for b := 1; b < bins && n > 0; b++ {
		q := sorted[b*n/bins]
		// A cut at or below the minimum would create an empty leading bin.
		if q <= sorted[0] {
			continue
		}
		if len(cuts) == 0 || q > cuts[len(cuts)-1] {
			cuts = append(cuts, q)
		}
	}
	return &Discretizer{Cuts: cuts}
}

// Bins returns the number of bins.
func (d *Discretizer) Bins() int { return len(d.Cuts) + 1 }

// Code maps a value to its bin index.
func (d *Discretizer) Code(v float64) int {
	// Binary search the first cut greater than v.
	lo, hi := 0, len(d.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < d.Cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CodeAll maps a whole slice.
func (d *Discretizer) CodeAll(values []float64) []int {
	out := make([]int, len(values))
	for i, v := range values {
		out[i] = d.Code(v)
	}
	return out
}
