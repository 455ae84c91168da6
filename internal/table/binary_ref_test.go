package table

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// readBinaryByField is ReadBinary as it read records before blocks: one
// io.ReadFull per cell. It is the reference the block reader must match
// in tables, error text and errors.Is.
func readBinaryByField(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	schema, cols, nrows, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	var buf [4]byte
	for r := uint64(0); r < nrows; r++ {
		for _, c := range cols {
			if c.Kind == Numeric {
				if _, err := io.ReadFull(br, buf[:4]); err != nil {
					return nil, fmt.Errorf("table: reading record %d: %w", r, err)
				}
				c.Floats = append(c.Floats, float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))))
				continue
			}
			nb := codeBytes(len(c.Dict))
			buf = [4]byte{}
			if _, err := io.ReadFull(br, buf[:nb]); err != nil {
				return nil, fmt.Errorf("table: reading record %d: %w", r, err)
			}
			code := int32(binary.LittleEndian.Uint32(buf[:]))
			if int(code) >= len(c.Dict) {
				return nil, fmt.Errorf("table: record %d has code %d outside dictionary of %d", r, code, len(c.Dict))
			}
			c.Codes = append(c.Codes, code)
		}
	}
	return New(schema, cols)
}

// failingReader returns its data, then err in place of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

var errRead = errors.New("read failed")

// sameAsByField fails t unless ReadBinary and the field-by-field
// reference read the same table from data, or fail with errors of the
// same text and errors.Is identity. A non-nil end makes the stream fail
// with it where data ends, in place of io.EOF.
func sameAsByField(t *testing.T, data []byte, end error) {
	t.Helper()
	open := func() io.Reader {
		if end == nil {
			return bytes.NewReader(data)
		}
		return &failingReader{data, end}
	}
	got, err := ReadBinary(open())
	want, wantErr := readBinaryByField(open())
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("ReadBinary error %v, field-by-field %v", err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("ReadBinary error %q, field-by-field %q", err, wantErr)
		}
		for _, target := range []error{io.EOF, io.ErrUnexpectedEOF, errRead} {
			if errors.Is(err, target) != errors.Is(wantErr, target) {
				t.Fatalf("errors.Is(%q, %v) differs from the field-by-field reader", err, target)
			}
		}
	case !Equal(got, want):
		t.Fatal("ReadBinary and the field-by-field reader read different tables")
	}
}

// TestReadBinaryMatchesByField cuts table streams at every offset, and
// corrupts one code and then cuts after it, and requires ReadBinary to
// answer each as the field-by-field reader does, whether the stream ends
// or fails where it is cut. Records are 11 bytes wide: a cut can end
// inside a numeric cell, inside a two-byte code or between fields. The
// large table spans three read blocks; it is cut near their boundaries.
func TestReadBinaryMatchesByField(t *testing.T) {
	dict := make([]string, 300) // two-byte codes
	for i := range dict {
		dict[i] = fmt.Sprint("v", i)
	}
	encode := func(rows int) (data []byte, recStart int) {
		b := MustBuilder(Schema{{Name: "n", Kind: Numeric}, {Name: "c", Kind: Categorical}, {Name: "m", Kind: Numeric}, {Name: "s", Kind: Categorical}})
		for r := 0; r < rows; r++ {
			b.MustAppendRow(float64(r)/4, dict[(r*7)%len(dict)], -float64(r), []string{"x", "y", "z"}[r%3])
		}
		tb := b.MustBuild()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tb); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), buf.Len() - rows*tb.RawBytesPerRow()
	}
	const recBytes = 11
	data, recStart := encode(40)
	for cut := 0; cut <= len(data); cut++ {
		sameAsByField(t, data[:cut], nil)
		sameAsByField(t, data[:cut], errRead)
	}
	// Record 5's two-byte code (bytes 4–5 of the record) is set to 0xFFFF,
	// outside the dictionary: reported before any later cut, and after a
	// cut inside the record's first field.
	bad := append([]byte(nil), data...)
	at := recStart + 5*recBytes
	bad[at+4], bad[at+5] = 0xFF, 0xFF
	for cut := at; cut <= len(bad); cut++ {
		sameAsByField(t, bad[:cut], nil)
	}

	perBlock := readBlockBytes / recBytes
	data, recStart = encode(2*perBlock + 3)
	for _, boundary := range []int{recStart + perBlock*recBytes, recStart + 2*perBlock*recBytes, len(data)} {
		for cut := boundary - 2*recBytes; cut <= min(boundary+2*recBytes, len(data)); cut++ {
			sameAsByField(t, data[:cut], nil)
			sameAsByField(t, data[:cut], errRead)
		}
	}
}

// acrossBlocks returns raw streams of one table of more than two read
// blocks: whole; with a code outside its dictionary in the last record
// of the second block; cut inside a record of the last block; with both
// faults, where the bad code is reported; and whole with a NaN and an
// infinity in different blocks and columns, where the earlier column's
// is reported, as New reports it.
func acrossBlocks(tb testing.TB) [][]byte {
	const recBytes = 11 // float32, two-byte code, float32, one-byte code
	perBlock := readBlockBytes / recBytes
	rows := 2*perBlock + 50
	dict := make([]string, 300)
	for i := range dict {
		dict[i] = fmt.Sprint("v", i)
	}
	b := MustBuilder(Schema{{Name: "n", Kind: Numeric}, {Name: "c", Kind: Categorical}, {Name: "m", Kind: Numeric}, {Name: "s", Kind: Categorical}})
	for r := range rows {
		b.MustAppendRow(float64(r)/4, dict[(r*7)%len(dict)], -float64(r), []string{"x", "y", "z"}[r%3])
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b.MustBuild()); err != nil {
		tb.Fatal(err)
	}
	whole := buf.Bytes()
	recStart := len(whole) - rows*recBytes
	at := func(r, field int) int { return recStart + r*recBytes + field }

	badCode := bytes.Clone(whole)
	badCode[at(2*perBlock-1, 4)], badCode[at(2*perBlock-1, 5)] = 0xFF, 0xFF
	cut := at(rows-3, 5) // inside the two-byte code of a record of the last block
	nonFinite := bytes.Clone(whole)
	binary.LittleEndian.PutUint32(nonFinite[at(100, 6):], math.Float32bits(float32(math.NaN())))
	binary.LittleEndian.PutUint32(nonFinite[at(2*perBlock+10, 0):], math.Float32bits(float32(math.Inf(1))))
	return [][]byte{whole, badCode, whole[:cut], badCode[:cut], nonFinite}
}

// TestReadBinaryAcrossBlocks reads the acrossBlocks streams, each ending
// and failing where it is cut, and requires ReadBinary to answer each as
// the field-by-field reader does: full blocks decode column by column,
// and a faulty or cut block reports the field reading field by field
// stops at.
func TestReadBinaryAcrossBlocks(t *testing.T) {
	streams := acrossBlocks(t)
	for _, data := range streams {
		sameAsByField(t, data, nil)
		sameAsByField(t, data, errRead)
	}
	perBlock := readBlockBytes / 11 // acrossBlocks' records are 11 bytes wide
	badCode := fmt.Sprintf("record %d has code 65535", 2*perBlock-1)
	for i, want := range []string{
		"",
		badCode,
		fmt.Sprintf("reading record %d: unexpected EOF", 2*perBlock+47),
		badCode,
		fmt.Sprintf("column 0 row %d is not finite", 2*perBlock+10),
	} {
		_, err := ReadBinary(bytes.NewReader(streams[i]))
		if (err == nil) != (want == "") || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("stream %d: ReadBinary error %v, want one naming %q", i, err, want)
		}
	}
}
