package cart

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strconv"
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
	m, _, err := Build(context.Background(), tb, 1, []int{0}, 2, cm, Config{})
	if err != nil {
		f.Fatal(err)
	}
	outliers, err := m.ComputeOutliers(context.Background(), tb, 2, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	if err := EncodeOutliers(&buf, m.TargetKind, outliers); err != nil {
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

// fuzzTable derives a table of 2–4 columns and 1–200 rows from data.
// data[0] picks the column count, data[1]'s bits the categorical columns,
// and the next byte per column its domain size (1–8 values, so one-value
// columns are constant and small domains tie); the rest are row-major
// cells, each taken modulo its column's domain.
func fuzzTable(data []byte) (*table.Table, bool) {
	if len(data) < 2 {
		return nil, false
	}
	ncols := 2 + int(data[0])%3
	if len(data) < 2+ncols+ncols {
		return nil, false
	}
	catMask, domains, cells := data[1], data[2:2+ncols], data[2+ncols:]
	nrows := min(len(cells)/ncols, 200)
	schema := make(table.Schema, ncols)
	cols := make([]*table.Column, ncols)
	for c := range cols {
		schema[c].Name = strconv.Itoa(c)
		dom := 1 + int(domains[c])%8
		if catMask&(1<<c) != 0 {
			schema[c].Kind = table.Categorical
			col := &table.Column{Kind: table.Categorical, Codes: make([]int32, nrows), Dict: make([]string, dom)}
			for i := range col.Dict {
				col.Dict[i] = strconv.Itoa(i)
			}
			for r := range col.Codes {
				col.Codes[r] = int32(int(cells[r*ncols+c]) % dom)
			}
			cols[c] = col
		} else {
			col := &table.Column{Kind: table.Numeric, Floats: make([]float64, nrows)}
			for r := range col.Floats {
				col.Floats[r] = float64(int(cells[r*ncols+c])%dom) * 1.5
			}
			cols[c] = col
		}
	}
	tb, err := table.New(schema, cols)
	return tb, err == nil
}

// FuzzBuild grows a CaRT for every fuzz-derived table, target, tolerance
// and pruning mode. Build must either succeed or refuse an invalid
// tolerance; a built model must keep the error guarantee on every row
// after its outlier scan, walk the same flattened as by pointer, and
// survive an Encode/DecodeModel round trip byte for byte.
func FuzzBuild(f *testing.F) {
	// 3 columns, column 1 categorical: ties, a constant column, one row.
	f.Add([]byte{1, 0b010, 7, 3, 0, 5, 1, 2, 3, 2, 1, 4, 3, 0, 2, 2, 7, 1, 5}, uint8(2), uint8(0), uint8(0))
	f.Add([]byte{1, 0b010, 7, 3, 0, 5, 1, 2}, uint8(0), uint8(1), uint8(1))
	f.Add([]byte{2, 0b0011, 3, 4, 7, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), uint8(3), uint8(2))
	f.Add([]byte{0, 0, 7, 7, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7}, uint8(255), uint8(0), uint8(0))
	f.Add([]byte{0, 0b01, 7, 7, 1, 1, 2, 2, 3, 3}, uint8(254), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, tolByte, targetByte, modeByte uint8) {
		tb, ok := fuzzTable(data)
		if !ok || tb.NumRows() == 0 {
			return
		}
		target := int(targetByte) % tb.NumCols()
		var cands []int
		for c := 0; c < tb.NumCols(); c++ {
			if c != target {
				cands = append(cands, c)
			}
		}
		var tol float64
		switch {
		case tolByte == 255:
			tol = math.NaN()
		case tolByte == 254:
			tol = -1
		case tb.Attr(target).Kind == table.Numeric:
			tol = float64(tolByte%8) / 2
		default:
			tol = float64(tolByte%8) / 10
		}
		cfg := Config{Prune: PruneMode(modeByte % 3), MinLeafRows: 1 + int(modeByte/3)%4}
		m, _, err := Build(context.Background(), tb, target, cands, tol, NewCostModel(tb), cfg)
		if tol < 0 || math.IsNaN(tol) {
			if err == nil {
				t.Fatalf("Build accepted tolerance %g", tol)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !guaranteeHolds(t, m, tb, tol) {
			t.Fatalf("reconstruction violates tolerance %g:\n%s", tol, m)
		}
		checkFlatWalk(t, "fuzz", m, tb)
		var enc bytes.Buffer
		if err := m.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		dm, err := DecodeModel(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := dm.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatal("Encode(DecodeModel(Encode(m))) differs from Encode(m)")
		}
		checkFlatWalk(t, "fuzz decoded", dm, tb)
	})
}
