package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecode asserts the one reader never panics on arbitrary input:
// every input must either decode to a valid table or fail with an error,
// through Decode and through per-segment decodes under tight limits, and
// input that does not start with the container magic must always fail.
// Run with `go test -fuzz=FuzzDecode ./internal/codec` for real fuzzing;
// the seed corpus runs as a normal test.
func FuzzDecode(f *testing.F) {
	// A valid one-segment container plus a few mutations.
	rng := rand.New(rand.NewSource(1))
	tb := testTable(rng, 50)
	mats, models, tols := buildPlan(f, tb, 10)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models, tols); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic)) // header only: no terminator, no footer
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xFF
	f.Add(mutated)
	// Hostile headers claiming resources their payload cannot back; the
	// decode limits must reject these without large allocation (see
	// limits_test.go), and the fuzzer mutates them into near misses.
	for _, tc := range hostileCases() {
		f.Add(tc.data)
	}

	// A valid two-segment container plus targeted corruptions of its
	// framing, footer, trailer and model block.
	two := twoSegments(f, rand.New(rand.NewSource(2)))
	f.Add(two)
	f.Add([]byte("SPARC1\n")) // the retired block-archive header
	f.Add(two[:len(two)/2])   // truncated mid-segment-body
	f.Add([]byte{'X', 0})     // wrong magic
	// Truncated mid-length-prefix: segment frames are KBs, so the first
	// length uvarint spans several bytes; cut after its first byte.
	f.Add(two[:len(magic)+1])
	// Truncated mid-footer: keep the terminator and part of the footer
	// but drop the trailer and the footer's tail.
	f.Add(two[: len(two)-trailerSize-3 : len(two)-trailerSize-3])
	f.Add(two[:len(two)-trailerSize/2]) // truncated mid-trailer
	for _, at := range []int{
		len(magic),                 // the first segment-length varint
		len(two) / 2,               // segment payload or footer
		len(two) - trailerSize + 2, // the declared footer length
		len(two) - trailerSize,     // the footer checksum
	} {
		flipped := append([]byte(nil), two...)
		flipped[at] ^= 0xFF
		f.Add(flipped)
	}
	// The model block starts after the last segment and the terminator.
	cr, err := Open(bytes.NewReader(two), DecodeLimits{})
	if err != nil {
		f.Fatal(err)
	}
	last := cr.Info(cr.NumSegments() - 1)
	badModel := append([]byte(nil), two...)
	badModel[last.Offset+last.Length+8] ^= 0xFF
	f.Add(badModel)

	// Tight limits: no corrupted input may allocate past these, and a
	// valid container that fits them must still decode.
	lim := DecodeLimits{
		MaxRows:        1 << 12,
		MaxCols:        64,
		MaxDictEntries: 1 << 12,
		MaxModelBytes:  1 << 22,
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Decode(bytes.NewReader(data))
		if err == nil && tbl == nil {
			t.Error("Decode returned nil table without error")
		}
		if err == nil && !bytes.HasPrefix(data, []byte(magic)) {
			t.Error("Decode accepted input without the container magic")
		}
		cr, err := Open(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		for i := 0; i < cr.NumSegments(); i++ {
			if tbl, err := cr.Segment(i); err == nil && tbl == nil {
				t.Errorf("Segment(%d) returned nil table without error", i)
			}
		}
	})
}

// twoSegments writes a container of two bodies of rows from one table
// against one model block.
func twoSegments(f testing.TB, rng *rand.Rand) []byte {
	f.Helper()
	tb := testTable(rng, 600)
	mats, models, tols := buildPlan(f, tb, 10)
	mb, err := NewModelBlock(tb, mats, models)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	for _, rows := range [][2]int{{0, 300}, {300, 600}} {
		idx := make([]int, 0, rows[1]-rows[0])
		for r := rows[0]; r < rows[1]; r++ {
			idx = append(idx, r)
		}
		part, err := tb.SelectRows(idx)
		if err != nil {
			f.Fatal(err)
		}
		outliers, err := scanOutliers(part, mb.Models, tols)
		if err != nil {
			f.Fatal(err)
		}
		var body bytes.Buffer
		if _, err := mb.EncodeBody(&body, part, outliers); err != nil {
			f.Fatal(err)
		}
		if err := cw.WriteSegment(body.Bytes(), part.NumRows(), ComputeZones(part, nil)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := cw.Close(mb); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
