package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapAppendNumericColumn is the map-based numeric column writer that
// numDict replaced, kept as the reference its bytes must equal: a
// map[float64]int numbers the distinct values (-0 and +0 share the key
// first inserted), the dictionary is sorted ascending, and more than
// dictLimit distinct values fall back to raw cells.
func mapAppendNumericColumn(dst []byte, vals []float64) []byte {
	index := make(map[float64]int, 256)
	for _, v := range vals {
		if _, ok := index[v]; !ok {
			if len(index) >= dictLimit {
				index = nil
				break
			}
			index[v] = 0
		}
	}
	if index == nil {
		dst = append(dst, numEncRaw)
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
		return dst
	}
	dict := make([]float64, 0, len(index))
	for v := range index {
		dict = append(dict, v)
	}
	sort.Float64s(dict)
	for i, v := range dict {
		index[v] = i
	}
	dst = append(dst, numEncDict)
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, v := range dict {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(index[v]))
	}
	return dst
}

// matchMapWriter fails unless nd writes vals byte for byte as the map
// writer does, and returns the cells.
func matchMapWriter(t testing.TB, nd *numDict, vals []float64) []byte {
	t.Helper()
	got := appendNumericColumn(nil, vals, nd)
	want := mapAppendNumericColumn(nil, vals)
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%d values: %d bytes written, map writer %d; first difference at byte %d", len(vals), len(got), len(want), at)
	}
	return got
}

// TestNumericColumnMatchesMapWriter pins the dictionary writer to the
// map writer where their rules are easiest to get wrong: which zero the
// dictionary keeps, the ascending order, and the fallback to raw cells
// past 2^16 distinct values. One numDict writes every case, in turn, so
// a buffer left over from a larger column must not leak into a smaller.
func TestNumericColumnMatchesMapWriter(t *testing.T) {
	negZero := math.Copysign(0, -1)
	distinct := func(n int) []float64 {
		vals := make([]float64, 0, n+n/2)
		for i := range n {
			vals = append(vals, float64(n-i)/4)
		}
		return append(vals, vals[:n/2]...) // repeats, in another order
	}
	rng := rand.New(rand.NewSource(1))
	repeats := make([]float64, 5000)
	for r := range repeats {
		repeats[r] = float64(rng.Intn(300)-150) / 8
	}
	var nd numDict
	for _, tc := range []struct {
		name      string
		vals      []float64
		enc       byte
		checkZero bool   // check the dictionary's second entry, a zero
		zero      uint32 // its float32 bits
	}{
		{"empty", nil, numEncDict, false, 0},
		{"-0 first", []float64{2, negZero, 1, 0, -1, negZero, 0}, numEncDict, true, 0x80000000},
		{"+0 first", []float64{2, 0, 1, negZero, -1, 0, negZero}, numEncDict, true, 0},
		{"repeats", repeats, numEncDict, false, 0},
		{"2^16 distinct", distinct(dictLimit), numEncDict, false, 0},
		{"2^16+1 distinct", distinct(dictLimit + 1), numEncRaw, false, 0},
		{"after raw", []float64{3, 1, 2, 1, 3}, numEncDict, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells := matchMapWriter(t, &nd, tc.vals)
			if cells[0] != tc.enc {
				t.Fatalf("written in encoding %d, want %d", cells[0], tc.enc)
			}
			// The encoding, the dictionary size in one byte, then the
			// float32 entries, ascending: -1, the zero, 1, 2.
			if !tc.checkZero {
				return
			}
			if got := binary.LittleEndian.Uint32(cells[2+4:]); got != tc.zero {
				t.Fatalf("zero written as %#x, want %#x", got, tc.zero)
			}
		})
	}
}

// FuzzNumericColumn requires numDict to write every fuzz-derived column
// byte for byte as the map writer does. Each input byte is a cell: the
// low bits pick one of a few values, repeated, signed zeros among them,
// and the high bits scale some of them into a wider spread. One numDict
// writes the column twice, so its reused buffers are fuzzed too.
func FuzzNumericColumn(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 1})
	f.Add([]byte{1, 0, 1, 0, 0x81, 0x40})
	f.Add(bytes.Repeat([]byte{0x10, 0x21, 0x32, 0x43, 0xf4, 0x05, 0x86, 0xc7}, 64))
	negZero := math.Copysign(0, -1)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data))
		for r, b := range data {
			switch v := int(b & 7); {
			case v == 0:
				vals[r] = 0
			case v == 1:
				vals[r] = negZero
			default:
				vals[r] = float64(v-4) * float64(int(b>>3)+1) / 4
			}
		}
		var nd numDict
		first := matchMapWriter(t, &nd, vals)
		if again := matchMapWriter(t, &nd, vals); !bytes.Equal(first, again) {
			t.Fatal("a reused numDict wrote the column differently")
		}
	})
}
