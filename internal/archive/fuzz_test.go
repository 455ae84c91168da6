package archive

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/table"
)

// FuzzDecodeArchive asserts the archive layer never panics on corrupted
// bytes: every input must either decode to a valid table or fail with an
// error, through ReadAll, through per-segment decodes under tight limits,
// and through a zone-map pruned Query over the footer it parsed. Input
// with the retired block-archive magic must always fail. codec.FuzzDecode
// fuzzes the container reader itself; this target adds the pruning and
// query code that sits on top of it.
// Run with `go test -fuzz=FuzzDecodeArchive ./internal/archive` for real
// fuzzing; the seed corpus runs as a normal test.
func FuzzDecodeArchive(f *testing.F) {
	// Seed with a valid two-segment lossless archive plus targeted
	// corruptions.
	tb := datagen.CDR(600, 1)
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		block, err := segmentRows(tb, i, 300)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := aw.WriteBlock(block); err != nil {
			f.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	// A lossy archive of the same rows, so the fuzzed path also runs
	// with a nonzero recorded tolerance vector.
	var lossy bytes.Buffer
	if _, err := WriteTable(&lossy, tb, core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}, SegmentOptions{SegmentRows: 300}); err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(lossy.Bytes())
	f.Add([]byte{})
	f.Add([]byte(magic))               // header only: no terminator, no footer
	f.Add([]byte(retiredMagic))        // retired block-archive header only
	f.Add(valid[:len(valid)/2])        // truncated mid-segment-body
	f.Add(append([]byte(nil), 'X', 0)) // wrong magic
	// Truncated mid-length-prefix: segment frames are KBs, so the first
	// length uvarint spans several bytes; cut after its first byte.
	f.Add(valid[:len(magic)+1])
	// Truncated mid-footer: keep the terminator and part of the footer
	// but drop the trailer and the footer's tail.
	f.Add(valid[: len(valid)-trailerSize-3 : len(valid)-trailerSize-3])
	// Truncated mid-trailer.
	f.Add(valid[:len(valid)-trailerSize/2])
	flippedLen := append([]byte(nil), valid...)
	flippedLen[len(magic)] ^= 0xFF // corrupt the first segment-length varint
	f.Add(flippedLen)
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0xFF // corrupt segment payload or footer
	f.Add(mutated)
	badTrailer := append([]byte(nil), valid...)
	badTrailer[len(badTrailer)-trailerSize+2] ^= 0xFF // corrupt declared footer length
	f.Add(badTrailer)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-trailerSize] ^= 0xFF // corrupt the footer checksum
	f.Add(badCRC)
	// The model block starts after the last segment and the terminator.
	sr, err := OpenSegmented(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	last := sr.Info(sr.NumSegments() - 1)
	badModel := append([]byte(nil), valid...)
	badModel[last.Offset+last.Length+8] ^= 0xFF // corrupt the model block
	f.Add(badModel)

	// Tight limits: no corrupted input may allocate past these, and a
	// valid archive that fits them must still decode.
	lim := codec.DecodeLimits{
		MaxRows:        1 << 12,
		MaxCols:        64,
		MaxDictEntries: 1 << 12,
		MaxModelBytes:  1 << 22,
	}
	// A filtered count: pruning walks every segment's zone maps, and the
	// kept segments are decoded, merged and aggregated.
	q := query.Query{Agg: query.Count, Where: query.NumCmp("start_hour", query.Gt, 21)}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadAll(bytes.NewReader(data))
		if err == nil && tbl == nil {
			t.Error("ReadAll returned nil table without error")
		}
		if err == nil && bytes.HasPrefix(data, []byte(retiredMagic)) {
			t.Error("ReadAll decoded a block archive")
		}
		cr, err := codec.Open(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		sr := &SegReader{cr}
		for i := 0; i < sr.NumSegments(); i++ {
			if tbl, err := sr.Segment(i); err == nil && tbl == nil {
				t.Errorf("Segment(%d) returned nil table without error", i)
			}
		}
		if _, qs, err := sr.Query(nil, q); err == nil && qs.Decoded+qs.Pruned != qs.Segments {
			t.Errorf("Query stats %+v: decoded plus pruned is not every segment", qs)
		}
	})
}
