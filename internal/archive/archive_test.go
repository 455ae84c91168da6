package archive

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// splitBlocks slices a table into contiguous row blocks.
func splitBlocks(t *testing.T, tb *table.Table, blockRows int) []*table.Table {
	t.Helper()
	var out []*table.Table
	for lo := 0; lo < tb.NumRows(); lo += blockRows {
		hi := lo + blockRows
		if hi > tb.NumRows() {
			hi = tb.NumRows()
		}
		rows := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			rows = append(rows, r)
		}
		block, err := tb.SelectRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, block)
	}
	return out
}

func TestArchiveRoundTripLossless(t *testing.T) {
	tb := datagen.CDR(3000, 1)
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range splitBlocks(t, tb, 700) {
		if _, err := aw.WriteBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if aw.Blocks() != 5 {
		t.Fatalf("blocks = %d, want 5", aw.Blocks())
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("lossless archive round trip changed the table")
	}
}

func TestArchiveRoundTripLossy(t *testing.T) {
	tb := datagen.CDR(4000, 2)
	// Absolute tolerances so every block enforces the same bound.
	tol := make(table.Tolerances, tb.NumCols())
	for i := 0; i < tb.NumCols(); i++ {
		if tb.Attr(i).Kind == table.Numeric {
			tol[i] = table.Tolerance{Value: 0.01 * tb.Col(i).Range()}
		}
	}
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range splitBlocks(t, tb, 1000) {
		if _, err := aw.WriteBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := table.MaxAbsDiff(tb, back)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d > tol[i].Value+1e-9 {
			t.Errorf("attribute %d error %g > %g", i, d, tol[i].Value)
		}
	}
}

// TestWritersRefuseValuesFloat32CannotHold: an archive stores numeric
// values as float32, so a table built with table.New holding 0.1 would
// decode to 0.10000000149, past a tolerance of 0. WriteTable refuses it
// through core.Learn's check, and a Writer's later block, which skips
// Learn, through remap's, leaving the writer usable.
func TestWritersRefuseValuesFloat32CannotHold(t *testing.T) {
	build := func(bad bool) *table.Table {
		x := make([]float64, 200)
		codes := make([]int32, len(x))
		for r := range x {
			x[r] = float64(r%16) / 8
			codes[r] = int32(r % 3)
		}
		if bad {
			x[150] = 0.1
		}
		tb, err := table.New(table.Schema{{Name: "x", Kind: table.Numeric}, {Name: "g", Kind: table.Categorical}},
			[]*table.Column{{Kind: table.Numeric, Floats: x}, {Kind: table.Categorical, Codes: codes, Dict: []string{"a", "b", "c"}}})
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	good, bad := build(false), build(true)
	if _, err := WriteTable(io.Discard, bad, core.Options{}, SegmentOptions{}); !errors.Is(err, codec.ErrNotFloat32) {
		t.Errorf("WriteTable = %v, want ErrNotFloat32", err)
	}
	aw, err := NewWriter(io.Discard, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.WriteBlock(good); err != nil {
		t.Fatal(err)
	}
	if _, err := aw.WriteBlock(bad); !errors.Is(err, codec.ErrNotFloat32) {
		t.Errorf("later WriteBlock = %v, want ErrNotFloat32", err)
	}
	if _, err := aw.WriteBlock(good); err != nil {
		t.Fatalf("WriteBlock after a refused block: %v", err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if aw.Blocks() != 2 {
		t.Errorf("%d blocks written, want the 2 accepted", aw.Blocks())
	}
}

func TestArchiveIteratesBlocks(t *testing.T) {
	tb := datagen.CDR(1500, 3)
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := splitBlocks(t, tb, 500)
	for _, b := range blocks {
		if _, err := aw.WriteBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != len(blocks) {
		t.Fatalf("footer records %d segments, want %d", sr.NumSegments(), len(blocks))
	}
	for i, want := range blocks {
		blk, err := sr.Segment(i)
		if err != nil {
			t.Fatal(err)
		}
		if !table.Equal(want, blk) {
			t.Errorf("block %d changed", i)
		}
	}
}

func TestArchiveRejectsSchemaDrift(t *testing.T) {
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.WriteBlock(datagen.CDR(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := aw.WriteBlock(datagen.Census(100, 1)); err == nil {
		t.Error("WriteBlock accepted a different schema")
	}
}

func TestArchiveWriterClosed(t *testing.T) {
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := aw.WriteBlock(datagen.CDR(10, 1)); err == nil {
		t.Error("WriteBlock accepted rows after Close")
	}
}

func TestArchiveErrors(t *testing.T) {
	if _, err := OpenSegmented(bytes.NewReader([]byte("nope"))); !errors.Is(err, codec.ErrNotArchive) {
		t.Errorf("OpenSegmented on bad magic = %v, want ErrNotArchive", err)
	}
	if _, err := ReadAll(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("ReadAll accepted bad magic")
	}
	if _, err := ReadAll(bytes.NewReader([]byte(magic))); err == nil {
		t.Error("ReadAll accepted missing terminator")
	}
	// Empty archive (just terminator): no blocks is an error for ReadAll.
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("ReadAll accepted empty archive")
	}
	// Truncated block payload.
	var buf2 bytes.Buffer
	aw2, err := NewWriter(&buf2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw2.WriteBlock(datagen.CDR(50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := aw2.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf2.Bytes()
	if _, err := ReadAll(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("ReadAll accepted truncated archive")
	}
}
