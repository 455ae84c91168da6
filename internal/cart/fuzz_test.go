package cart

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// FuzzDecodeModel asserts the model and outlier decoders never panic on
// arbitrary input, and that every outlier they accept lies inside the
// body and dictionary they were given.
func FuzzDecodeModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	tb := correlatedTable(rng, 100)
	cm := NewCostModel(tb)
	m, _, err := Build(tb, 1, []int{0}, 2, cm, Config{})
	if err != nil {
		f.Fatal(err)
	}
	if err := m.ComputeOutliers(tb, 2); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	if err := EncodeOutliers(&buf, m.TargetKind, m.Outliers); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0x01
	f.Add(mutated)
	// Deep nesting attack: a long run of internal-node tags.
	deep := bytes.Repeat([]byte{0x00, 0x00, tagInternalNum, 0x01}, 2000)
	f.Add(deep)

	const rows, dictSize = 200, 3
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := DecodeModel(r)
		if err == nil && m == nil {
			t.Error("DecodeModel returned nil model without error")
		}
		for _, kind := range []table.Kind{table.Numeric, table.Categorical} {
			outliers, err := DecodeOutliers(bytes.NewReader(data), kind, rows, dictSize)
			if err != nil {
				continue
			}
			for _, o := range outliers {
				if o.Row < 0 || o.Row >= rows || o.Code < 0 || o.Code >= dictSize {
					t.Errorf("DecodeOutliers accepted %+v", o)
				}
			}
		}
	})
}
