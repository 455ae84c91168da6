// Fixture for the floatcmp analyzer: the package base name "cart" puts
// it in scope, mirroring repro/internal/cart.
package cart

type split struct {
	score float64
	attr  int
}

func tieBreak(a, b split) bool {
	if a.score == b.score { // want `compares floats with ==`
		return a.attr < b.attr
	}
	return a.score < b.score
}

func thresholds(xs []float64) bool {
	if xs[0] != xs[len(xs)-1] { // want `compares floats with !=`
		return true
	}
	var f32 float32
	return float64(f32) == xs[0] // want `compares floats with ==`
}

func mixed(tol float64, n int) bool {
	// One float operand is enough: the int is converted.
	return tol == float64(n) // want `compares floats with ==`
}

func fine(a, b float64, i, j int) bool {
	if i == j { // ints are not flagged
		return true
	}
	if a < b || a > b { // orderings are not flagged
		return false
	}
	s := "x"
	return s != "y" // strings are not flagged
}
