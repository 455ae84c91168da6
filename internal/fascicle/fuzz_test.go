package fascicle

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/table"
)

// FuzzDecompress asserts the fascicle decoder never panics on arbitrary
// input.
func FuzzDecompress(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	tb := clusteredTable(rng, 100)
	data, err := Compress(tb, Params{K: 2, Widths: []float64{1, 1, 0}}, false)
	if err != nil {
		f.Fatal(err)
	}
	gzData, err := Compress(tb, Params{K: 2, Widths: []float64{1, 1, 0}}, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(gzData)
	f.Add([]byte{})
	f.Add([]byte(fascicleMagic))
	f.Add(data[:len(data)/2])
	mutated := append([]byte(nil), data...)
	mutated[len(mutated)/2] ^= 0xAA
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Decompress(data)
		if err == nil && tbl == nil {
			t.Error("Decompress returned nil table without error")
		}
	})
}

// fuzzBytes hands out a fuzz input byte by byte, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// clusterInput decodes a fuzz input into a table of 1–4 columns of mixed
// kinds, built through table.New, and Params with fuzz-chosen K, MinSize,
// MaxFascicles and widths. Numeric cells are raw float64
// multiples of 0.3 (mostly not float32-exact), with byte 0x80 as -0.
func clusterInput(data []byte) (*table.Table, Params, error) {
	in := fuzzBytes(data)
	head := in.next()
	ncols := 1 + int(head%4)
	p := Params{
		K:            int(in.next()) % (ncols + 1),
		MinSize:      int(in.next()) % 5,
		MaxFascicles: int(in.next()) % 17,
		Widths:       make([]float64, ncols),
	}
	schema := make(table.Schema, ncols)
	cols := make([]*table.Column, ncols)
	for a := range cols {
		schema[a].Name = string(rune('a' + a))
		if head>>(2+a)&1 == 1 {
			schema[a].Kind = table.Categorical
			cols[a] = &table.Column{Kind: table.Categorical, Dict: []string{"p", "q", "r", "s"}[:1+in.next()%4]}
			continue
		}
		schema[a].Kind = table.Numeric
		cols[a] = &table.Column{Kind: table.Numeric}
		p.Widths[a] = float64(in.next()) / 8
	}
	for rows := 0; len(in) > 0 && rows < 512; rows++ {
		for _, c := range cols {
			b := in.next()
			if c.Kind == table.Categorical {
				c.Codes = append(c.Codes, int32(b)%int32(len(c.Dict)))
			} else if b == 0x80 {
				c.Floats = append(c.Floats, math.Copysign(0, -1))
			} else {
				c.Floats = append(c.Floats, float64(int8(b))*0.3)
			}
		}
	}
	tb, err := table.New(schema, cols)
	return tb, p, err
}

// FuzzCluster asserts Cluster's contract on fuzz-derived tables: the
// fascicles and leftovers partition the rows, each in ascending order;
// no more fascicles than MaxFascicles grow, each of at least MinSize
// rows and K compact attributes; every compact numeric member lies
// within its width of the representative; every compact categorical
// member equals its representative; and two runs agree.
func FuzzCluster(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 2, 0, 8, 0, 1, 2, 3, 1, 2, 4, 5, 5, 5, 0x80, 0})
	f.Add([]byte{0x05, 2, 2, 4, 3, 16, 1, 20, 0, 3, 1, 1, 2, 1, 3, 2, 1, 3, 2, 1, 9, 2, 1, 9, 2})
	f.Add([]byte{0x3f, 0, 0, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte("?100100100011000000000")) // four categorical columns, rows agreeing on some
	f.Add([]byte{0x03, 3, 3, 8, 24, 2, 0xf0, 0x10, 8, 1, 0x80, 0, 0x80, 0, 0x80, 0, 0, 0, 0xf0, 0xf8, 0x7f, 0x7f, 0xff, 0x01})
	// Two 4-code categorical columns, then two numeric ones (widths 1
	// and 2), over 48 rows that cycle through the 16 code combinations.
	comboSeed := []byte{0x0f, 3, 2, 16, 3, 3, 8, 16}
	for r := 0; r < 48; r++ {
		comboSeed = append(comboSeed, byte(r%4), byte(r/4%4), byte(r%7), byte(r%5))
	}
	f.Add(comboSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		tb, p, err := clusterInput(data)
		if err != nil {
			t.Fatalf("clusterInput built an invalid table: %v", err)
		}
		c, err := Cluster(tb, p)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Cluster(tb, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatal("two runs over the same input differ")
		}
		if len(c.Fascicles) > c.params.MaxFascicles {
			t.Errorf("%d fascicles, budget %d", len(c.Fascicles), c.params.MaxFascicles)
		}

		owner := make([]int, tb.NumRows()) // 0 unassigned, -1 leftover, i+1 fascicle i
		claim := func(rows []int, id int) {
			for i, r := range rows {
				if i > 0 && rows[i-1] >= r {
					t.Fatalf("rows of %d not ascending: %v", id, rows)
				}
				if r < 0 || r >= tb.NumRows() || owner[r] != 0 {
					t.Fatalf("row %d claimed twice or out of range", r)
				}
				owner[r] = id
			}
		}
		claim(c.Leftover, -1)
		for fi := range c.Fascicles {
			fc := &c.Fascicles[fi]
			claim(fc.Rows, fi+1)
			if len(fc.Rows) < c.params.MinSize {
				t.Errorf("fascicle %d has %d rows, minimum %d", fi, len(fc.Rows), c.params.MinSize)
			}
			if len(fc.CompactAttrs) != c.params.K {
				t.Errorf("fascicle %d has %d compact attributes, want %d", fi, len(fc.CompactAttrs), c.params.K)
			}
			for j, a := range fc.CompactAttrs {
				if j > 0 && fc.CompactAttrs[j-1] >= a {
					t.Fatalf("fascicle %d compact attributes not ascending: %v", fi, fc.CompactAttrs)
				}
				num, cat := fc.NumReps[j], fc.CatReps[j]
				for _, r := range fc.Rows {
					if tb.Attr(a).Kind == table.Categorical {
						if tb.Code(r, a) != cat {
							t.Errorf("fascicle %d row %d: code %d, representative %d", fi, r, tb.Code(r, a), cat)
						}
						continue
					}
					v := tb.Float(r, a)
					if math.Abs(v-num) > p.Widths[a] {
						t.Errorf("fascicle %d row %d attr %d: %g is farther than %g from %g", fi, r, a, v, p.Widths[a], num)
					}
				}
			}
		}
		for r, id := range owner {
			if id == 0 {
				t.Fatalf("row %d is in no fascicle and not a leftover", r)
			}
		}
	})
}
