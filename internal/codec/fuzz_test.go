package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cart"
	"repro/internal/table"
)

// FuzzDecode asserts the compressed-table decoder never panics on
// arbitrary input: it must either fail with an error or produce a valid
// table. Run with `go test -fuzz=FuzzDecode ./internal/codec` for real
// fuzzing; the seed corpus runs as a normal test.
func FuzzDecode(f *testing.F) {
	// Seed with a valid stream plus a few mutations.
	rng := rand.New(rand.NewSource(1))
	tb := testTable(rng, 50)
	mats, models := buildPlanF(f, tb, 10)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xFF
	f.Add(mutated)
	// Hostile headers claiming resources their payload cannot back; the
	// decode limits must reject these without large allocation (see
	// limits_test.go), and the fuzzer mutates them into near misses.
	f.Add(hostileRowsStream())
	f.Add(hostileColsStream())
	f.Add(hostileDictStream())
	f.Add(hostileModelsStream())
	f.Add(hostileTPrimeStream())
	f.Add(hostileShortTPrimeStream())
	f.Add(hostileLeafCodeStream())
	f.Add(hostileOutlierRowStream())

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Decode(bytes.NewReader(data))
		if err == nil && tbl == nil {
			t.Error("Decode returned nil table without error")
		}
	})
}

// buildPlanF mirrors buildPlan for fuzz seeds (testing.F instead of *T).
func buildPlanF(f *testing.F, tb *table.Table, tol float64) ([]int, []*cart.Model) {
	f.Helper()
	mats, models, err := buildPlanErr(tb, tol)
	if err != nil {
		f.Fatal(err)
	}
	return mats, models
}
