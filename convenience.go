package spartan

import (
	"fmt"
	"math"

	"repro/internal/table"
)

// Verify checks that `restored` satisfies the tolerance guarantees with
// respect to `original`: every numeric cell within its absolute bound,
// every categorical column's mismatch rate within its probability bound.
// A nil tolerance vector demands exact equality (lossless).
func Verify(original, restored *Table, tol Tolerances) error {
	if tol == nil {
		tol = table.ZeroTolerances(original)
	}
	resolved, err := tol.Resolve(original)
	if err != nil {
		return err
	}
	diffs, err := table.MaxAbsDiff(original, restored)
	if err != nil {
		return err
	}
	for i, d := range diffs {
		attr := original.Attr(i)
		bound := resolved[i].Value
		if attr.Kind == Numeric {
			// Guard against float comparison noise at the exact boundary.
			if d > bound*(1+1e-12)+math.SmallestNonzeroFloat64 {
				return fmt.Errorf("spartan: attribute %q: max error %g exceeds tolerance %g",
					attr.Name, d, bound)
			}
			continue
		}
		if len(resolved[i].PerClass) > 0 {
			if err := verifyPerClass(original, restored, i, resolved[i]); err != nil {
				return err
			}
			continue
		}
		if d > bound {
			return fmt.Errorf("spartan: attribute %q: mismatch rate %g exceeds tolerance %g",
				attr.Name, d, bound)
		}
	}
	return nil
}

// verifyPerClass checks per-class categorical bounds: for each class c,
// the fraction of rows whose original value is c that decompress to a
// different value must not exceed that class's tolerance. Classes are
// checked in the order of the original column's dictionary, so the error
// names the same class on every call.
func verifyPerClass(original, restored *Table, col int, tol Tolerance) error {
	oc, rc := original.Col(col), restored.Col(col)
	counts := make([]int, len(oc.Dict))
	wrong := make([]int, len(oc.Dict))
	for r, c := range oc.Codes {
		counts[c]++
		if rc.Dict[rc.Codes[r]] != oc.Dict[c] {
			wrong[c]++
		}
	}
	for c, n := range counts {
		if n == 0 {
			continue
		}
		class := oc.Dict[c]
		bound := tol.Value
		if v, ok := tol.PerClass[class]; ok {
			bound = v
		}
		if rate := float64(wrong[c]) / float64(n); rate > bound {
			return fmt.Errorf("spartan: attribute %q class %q: mismatch rate %g exceeds tolerance %g",
				original.Attr(col).Name, class, rate, bound)
		}
	}
	return nil
}
