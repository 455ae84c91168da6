package bayesnet

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/table"
)

// fuzzTable derives a table of 1 to maxParents+4 columns and 1 to 256
// rows from data. data[0] picks the column count, data[1:3]'s bits the
// categorical columns, and the next byte per column its domain size (at
// most the row count); the rest are row-major cells, each taken modulo
// its column's domain.
func fuzzTable(data []byte) (*table.Table, bool) {
	if len(data) < 3 {
		return nil, false
	}
	ncols := 1 + int(data[0])%(maxParents+4)
	if len(data) < 3+2*ncols {
		return nil, false
	}
	catMask, domains, cells := binary.LittleEndian.Uint16(data[1:3]), data[3:3+ncols], data[3+ncols:]
	nrows := min(len(cells)/ncols, 256)
	if nrows == 0 {
		return nil, false
	}
	schema := make(table.Schema, ncols)
	cols := make([]*table.Column, ncols)
	for c := range cols {
		schema[c].Name = strconv.Itoa(c)
		dom := 1 + int(domains[c])%nrows
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
				col.Floats[r] = float64(int(cells[r*ncols+c])%dom) * 0.5
			}
			cols[c] = col
		}
	}
	tb, err := table.New(schema, cols)
	return tb, err == nil
}

// cloneSeed is fuzz input for ncols columns that repeat one 4-valued
// cell per row, so every pair of columns is dependent.
func cloneSeed(ncols int, catMask uint16, rows int) []byte {
	data := []byte{byte(ncols - 1), byte(catMask), byte(catMask >> 8)}
	for range ncols {
		data = append(data, 3)
	}
	for r := range rows {
		v := byte(r * 7 % 4)
		for range ncols {
			data = append(data, v)
		}
	}
	return data
}

// starSeed is fuzz input for a binary column 0 and k 4-valued columns,
// each a copy of column 0 flipped on a tenth of the rows in its high bit
// plus a random low bit. Column 0 separates the copies and has the lower
// entropy, so every copy points at it: k > maxParents reaches the cap.
func starSeed(k int, catMask uint16, rows int) []byte {
	rng := rand.New(rand.NewSource(int64(k)))
	data := []byte{byte(k), byte(catMask), byte(catMask >> 8), 1}
	for range k {
		data = append(data, 3)
	}
	for range rows {
		y := rng.Intn(2)
		data = append(data, byte(y))
		for range k {
			v := y
			if rng.Intn(10) == 0 {
				v ^= 1
			}
			data = append(data, byte(2*v+rng.Intn(2)))
		}
	}
	return data
}

// FuzzBuildNetwork builds a network from every fuzz-derived table. Build
// must succeed; the network must be acyclic, keep every node within
// maxParents parents and its parent and child lists in agreement; and a
// second Build must give the same edges.
func FuzzBuildNetwork(f *testing.F) {
	f.Add(cloneSeed(maxParents+3, 0xFFFF, 200))
	f.Add(cloneSeed(maxParents+4, 0x00FF, 256))
	f.Add(cloneSeed(maxParents+1, 0, 120))
	f.Add(starSeed(maxParents+3, 0xFFFF, 200))
	f.Add(starSeed(maxParents+2, 0b1010101010, 256))
	f.Add([]byte{3, 0b0101, 0, 7, 2, 200, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0})
	f.Add([]byte{0, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, ok := fuzzTable(data)
		if !ok {
			return
		}
		g, err := Build(tb)
		if err != nil {
			t.Fatal(err)
		}
		checkNetwork(t, g)
		again, err := Build(tb)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.Edges(), again.Edges()) {
			t.Fatalf("rebuild changed the edges: %v then %v", g.Edges(), again.Edges())
		}
	})
}
