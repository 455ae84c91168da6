package spartan

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// TestPerClassCategoricalTolerance exercises the paper's §2.1 extension:
// per-class mismatch probabilities. The "fulltime" class of employment is
// pinned exact while others may err up to 20%.
func TestPerClassCategoricalTolerance(t *testing.T) {
	tb := datagen.Census(4000, 31)
	tol := UniformTolerances(tb, 0.02, 0.2)
	empIdx := tb.Schema().Index("employment")
	tol[empIdx].PerClass = map[string]float64{"fulltime": 0}

	data, _, err := compressBytes(tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tb, back, tol); err != nil {
		t.Fatal(err)
	}
	// Spot-check the pinned class directly.
	oc, rc := tb.Col(empIdx), back.Col(empIdx)
	for r := 0; r < tb.NumRows(); r++ {
		if oc.Dict[oc.Codes[r]] == "fulltime" && rc.Dict[rc.Codes[r]] != "fulltime" {
			t.Fatalf("row %d: pinned class fulltime decompressed as %q",
				r, rc.Dict[rc.Codes[r]])
		}
	}
}

func TestPerClassValidation(t *testing.T) {
	tb := datagen.Census(200, 32)
	tol := UniformTolerances(tb, 0.02, 0.1)

	// Per-class override outside [0,1].
	bad := append(Tolerances(nil), tol...)
	empIdx := tb.Schema().Index("employment")
	bad[empIdx].PerClass = map[string]float64{"fulltime": 1.5}
	if _, _, err := compressBytes(tb, Options{Tolerances: bad}); err == nil {
		t.Error("accepted per-class tolerance > 1")
	}

	// A NaN per-class override is refused before anything is written: a
	// table whose segment frames outgrow the writer's buffer shows it.
	big := datagen.Census(4000, 31)
	nan := UniformTolerances(big, 0.02, 0.1)
	nan[empIdx].PerClass = map[string]float64{"fulltime": math.NaN()}
	if _, err := nan.Resolve(big); err == nil {
		t.Error("Resolve accepted a NaN per-class tolerance")
	}
	if data, _, err := compressBytes(big, Options{Tolerances: nan}); err == nil || len(data) != 0 {
		t.Errorf("Compress with a NaN per-class tolerance wrote %d bytes and returned %v", len(data), err)
	}

	// Per-class override on a numeric attribute.
	bad2 := append(Tolerances(nil), tol...)
	bad2[tb.Schema().Index("age")].PerClass = map[string]float64{"x": 0.5}
	if _, _, err := compressBytes(tb, Options{Tolerances: bad2}); err == nil {
		t.Error("accepted per-class tolerance on numeric attribute")
	}
}

func TestVerifyPerClassCatchesViolations(t *testing.T) {
	tb := datagen.Census(500, 33)
	empIdx := tb.Schema().Index("employment")
	tol := UniformTolerances(tb, 0.02, 0.5)
	tol[empIdx].PerClass = map[string]float64{"fulltime": 0}

	mutated := tb.Clone()
	// Flip one fulltime row to a different code.
	col := mutated.Col(empIdx)
	target := int32(-1)
	for c, name := range col.Dict {
		if name == "fulltime" {
			target = int32(c)
		}
	}
	other := (target + 1) % int32(len(col.Dict))
	for r, c := range col.Codes {
		if c == target {
			col.Codes[r] = other
			break
		}
	}
	if err := Verify(tb, mutated, tol); err == nil {
		t.Error("Verify missed a per-class violation")
	}
}

// TestVerifyPerClassErrorIsStable breaks the bound of two classes at
// once: Verify must name the same one, the first in the original
// column's dictionary, on every call.
func TestVerifyPerClassErrorIsStable(t *testing.T) {
	tb := datagen.Census(500, 33)
	empIdx := tb.Schema().Index("employment")
	tol := UniformTolerances(tb, 0.02, 0)
	mutated := tb.Clone()
	col := mutated.Col(empIdx)
	tol[empIdx].PerClass = map[string]float64{col.Dict[0]: 0}
	// Flip one row of each of the first two classes.
	for _, target := range []int32{0, 1} {
		for r, c := range col.Codes {
			if c == target {
				col.Codes[r] = 2
				break
			}
		}
	}
	first := Verify(tb, mutated, tol)
	if first == nil || !strings.Contains(first.Error(), fmt.Sprintf("class %q", col.Dict[0])) {
		t.Fatalf("Verify = %v, want a violation of class %q", first, col.Dict[0])
	}
	for range 50 {
		if err := Verify(tb, mutated, tol); err == nil || err.Error() != first.Error() {
			t.Fatalf("Verify = %v, then %v", first, err)
		}
	}
}
