package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The raw binary format defines the "uncompressed input size" used as the
// denominator of every compression ratio in the benchmarks, mirroring the
// paper's fixed-length record layout (§1: CDRs are fixed-length records):
// numeric cells are 4-byte IEEE floats, categorical cells are fixed-width
// code fields of ceil(log2 |dom|)/8 bytes (min 1).

const rawMagic = "SPTBL1\n"

// RawBytesPerRow returns the fixed-length record width of one tuple in the
// raw binary format.
func (t *Table) RawBytesPerRow() int {
	w := 0
	for _, c := range t.cols {
		w += cellBytes(c)
	}
	return w
}

// RawSizeBytes returns the total raw binary payload size of the table
// (records only, excluding the small schema header). This is the
// uncompressed-size baseline for compression ratios.
func (t *Table) RawSizeBytes() int {
	return t.rows * t.RawBytesPerRow()
}

func cellBytes(c *Column) int {
	if c.Kind == Numeric {
		return 4
	}
	return codeBytes(len(c.Dict))
}

func codeBytes(domain int) int {
	switch {
	case domain <= 1<<8:
		return 1
	case domain <= 1<<16:
		return 2
	case domain <= 1<<24:
		return 3
	default:
		return 4
	}
}

// WriteBinary serializes the table in the raw fixed-length record format
// with a self-describing header (magic, schema, dictionaries, row count).
func WriteBinary(w io.Writer, t *Table) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(rawMagic); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(t.schema))); err != nil {
		return err
	}
	for i, a := range t.schema {
		if err := writeString(bw, a.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(a.Kind)); err != nil {
			return err
		}
		if a.Kind == Categorical {
			dict := t.cols[i].Dict
			if err := writeUvarint(bw, uint64(len(dict))); err != nil {
				return err
			}
			for _, s := range dict {
				if err := writeString(bw, s); err != nil {
					return err
				}
			}
		}
	}
	if err := writeUvarint(bw, uint64(t.rows)); err != nil {
		return err
	}
	var buf [4]byte
	for r := 0; r < t.rows; r++ {
		for _, c := range t.cols {
			if c.Kind == Numeric {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(c.Floats[r])))
				if _, err := bw.Write(buf[:4]); err != nil {
					return err
				}
				continue
			}
			nb := codeBytes(len(c.Dict))
			v := uint32(c.Codes[r])
			binary.LittleEndian.PutUint32(buf[:], v)
			if _, err := bw.Write(buf[:nb]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses a table written by WriteBinary. Note that numeric
// values round-trip through float32 (the raw record layout), matching the
// 4-byte-value cost model used throughout.
func ReadBinary(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(rawMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("table: reading binary magic: %w", err)
	}
	if string(magic) != rawMagic {
		return nil, fmt.Errorf("table: bad binary magic %q", magic)
	}
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("table: reading column count: %w", err)
	}
	if ncols == 0 || ncols > 1<<16 {
		return nil, fmt.Errorf("table: implausible column count %d", ncols)
	}
	schema := make(Schema, ncols)
	cols := make([]*Column, ncols)
	for i := range schema {
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("table: reading attribute name: %w", err)
		}
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("table: reading attribute kind: %w", err)
		}
		kind := Kind(kindByte)
		if kind != Numeric && kind != Categorical {
			return nil, fmt.Errorf("table: unknown attribute kind %d", kindByte)
		}
		schema[i] = Attribute{Name: name, Kind: kind}
		cols[i] = &Column{Kind: kind}
		if kind == Categorical {
			dlen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("table: reading dictionary size: %w", err)
			}
			if dlen > 1<<22 {
				return nil, fmt.Errorf("table: implausible dictionary size %d", dlen)
			}
			dict := make([]string, 0, min(int(dlen), 1<<12))
			for d := uint64(0); d < dlen; d++ {
				s, err := readString(br)
				if err != nil {
					return nil, fmt.Errorf("table: reading dictionary entry: %w", err)
				}
				dict = append(dict, s)
			}
			cols[i].Dict = dict
		}
	}
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("table: reading row count: %w", err)
	}
	if nrows > 1<<34 {
		return nil, fmt.Errorf("table: implausible row count %d", nrows)
	}
	// Columns grow incrementally so a lying row count in the header cannot
	// force a huge allocation before the stream runs out of records.
	initialCap := int(nrows)
	if initialCap > 1<<16 {
		initialCap = 1 << 16
	}
	for i := range cols {
		if cols[i].Kind == Numeric {
			cols[i].Floats = make([]float64, 0, initialCap)
		} else {
			cols[i].Codes = make([]int32, 0, initialCap)
		}
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

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("table: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
