package table

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadBinary asserts the raw binary table reader never panics and
// reads every stream as the field-by-field reference reader does. Beside
// a 2-row table, the seeds hold the acrossBlocks streams, which fill more
// than two read blocks, so the column-wise block decoder runs.
func FuzzReadBinary(f *testing.F) {
	b := MustBuilder(Schema{
		{Name: "n", Kind: Numeric},
		{Name: "c", Kind: Categorical},
	})
	b.MustAppendRow(1.5, "x")
	b.MustAppendRow(2.5, "y")
	tb := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tb); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(rawMagic))
	f.Add(valid[:len(valid)-2])
	mutated := append([]byte(nil), valid...)
	mutated[len(rawMagic)+1] ^= 0x7F
	f.Add(mutated)
	for _, data := range acrossBlocks(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadBinary(bytes.NewReader(data))
		if err == nil && tbl == nil {
			t.Error("ReadBinary returned nil table without error")
		}
		sameAsByField(t, data, nil)
	})
}

// FuzzReadCSV asserts the CSV reader never panics on arbitrary text.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("")
	f.Add("a\n")
	f.Add("a,a\n1,2\n")
	f.Add("x,y\n\"unclosed,3\n")
	f.Fuzz(func(t *testing.T, data string) {
		tbl, err := ReadCSV(strings.NewReader(data), nil)
		if err == nil && tbl == nil {
			t.Error("ReadCSV returned nil table without error")
		}
	})
}
