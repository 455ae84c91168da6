package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
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
// with a self-describing header (magic, schema header, row count). It
// writes whole records in blocks of at most readBlockBytes (one record
// when a record is wider), the blocks ReadBinary reads.
func WriteBinary(w io.Writer, t *Table) error {
	buf := AppendSchema(append(make([]byte, 0, readBlockBytes), rawMagic...), t.schema, t.Dicts())
	buf = binary.AppendUvarint(buf, uint64(t.rows))
	width := t.RawBytesPerRow()
	for r := 0; r < t.rows; r++ {
		if len(buf) > 0 && len(buf)+width > readBlockBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		for _, c := range t.cols {
			if c.Kind == Numeric {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(c.Floats[r])))
				continue
			}
			v, nb := uint32(c.Codes[r]), codeBytes(len(c.Dict))
			for i := 0; i < nb; i++ {
				buf = append(buf, byte(v>>(8*i)))
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// readBlockBytes bounds one read of ReadBinary's records: it reads as
// many whole records as fit, and one record when a record is wider.
const readBlockBytes = 64 << 10

// ReadBinary parses a table written by WriteBinary. Note that numeric
// values round-trip through float32 (the raw record layout), matching the
// 4-byte-value cost model used throughout.
func ReadBinary(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	schema, cols, nrows, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	nonFinite, err := readRecords(br, cols, nrows)
	if err != nil {
		return nil, err
	}
	// readRecords checked every code and cell, so the table is assembled
	// without a second scan, reporting what New would.
	return assemble(schema, cols, func(i int, _ *Column) error {
		if nonFinite[i] >= 0 {
			return notFinite(i, nonFinite[i])
		}
		return nil
	})
}

// readBinaryHeader reads the magic, schema and row count of a raw binary
// table and returns its schema with one empty column per attribute.
func readBinaryHeader(br *bufio.Reader) (Schema, []*Column, uint64, error) {
	magic := make([]byte, len(rawMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, 0, fmt.Errorf("table: reading binary magic: %w", err)
	}
	if string(magic) != rawMagic {
		return nil, nil, 0, fmt.Errorf("table: bad binary magic %q", magic)
	}
	schema, dicts, err := ReadSchema(br, 1<<16, 1<<22)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("table: %w", err)
	}
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("table: reading row count: %w", err)
	}
	if nrows > 1<<34 {
		return nil, nil, 0, fmt.Errorf("table: implausible row count %d", nrows)
	}
	// Columns grow incrementally so a lying row count in the header cannot
	// force a huge allocation before the stream runs out of records.
	initialCap := min(nrows, 1<<16)
	cols := make([]*Column, len(schema))
	for i, a := range schema {
		cols[i] = &Column{Kind: a.Kind, Dict: dicts[i]}
		if a.Kind == Numeric {
			cols[i].Floats = make([]float64, 0, initialCap)
		} else {
			cols[i].Codes = make([]int32, 0, initialCap)
		}
	}
	return schema, cols, nrows, nil
}

// readRecords appends nrows fixed-length records to cols and returns, by
// column, the first row whose numeric value is not finite, or -1. It
// reads whole records in blocks of at most readBlockBytes and decodes a
// full block column by column (see decodeBlock). A block the stream cuts
// short, or one holding a code outside its dictionary, is walked field by
// field (see recordError) for the error reading field by field gives.
func readRecords(br *bufio.Reader, cols []*Column, nrows uint64) ([]int, error) {
	widths := make([]int, len(cols))
	recBytes := 0
	for i, c := range cols {
		widths[i] = cellBytes(c)
		recBytes += widths[i]
	}
	nonFinite := make([]int, len(cols))
	for i := range nonFinite {
		nonFinite[i] = -1
	}
	perBlock := uint64(max(1, readBlockBytes/recBytes))
	block := make([]byte, min(nrows, perBlock)*uint64(recBytes))
	for r := uint64(0); r < nrows; {
		k := min(nrows-r, perBlock)
		n, err := io.ReadFull(br, block[:k*uint64(recBytes)])
		if err == nil && decodeBlock(cols, block[:n], int(k), widths, int(r), nonFinite) {
			r += k
			continue
		}
		return nil, recordError(cols, block[:n], err, widths, r)
	}
	return nonFinite, nil
}

// decodeBlock appends the k whole records of block to cols, one column at
// a time, and sets nonFinite[i] to the first row, counted from base, whose
// value in numeric column i is not finite, unless it is already set. It
// reports false for a block holding a code outside its dictionary,
// leaving some of the block appended. A categorical cell is at most three
// bytes wide, as readBinaryHeader caps a dictionary at 2^22 entries, so no
// code is negative.
func decodeBlock(cols []*Column, block []byte, k int, widths []int, base int, nonFinite []int) bool {
	recBytes := len(block) / k
	off := 0
	for i, c := range cols {
		w := widths[i]
		cells := block[off:]
		off += w
		if c.Kind == Numeric {
			var dst []float64
			c.Floats, dst = extend(c.Floats, k)
			for j, p := 0, 0; j < k; j, p = j+1, p+recBytes {
				bits := binary.LittleEndian.Uint32(cells[p : p+4])
				if bits&0x7f800000 == 0x7f800000 && nonFinite[i] < 0 {
					nonFinite[i] = base + j
				}
				dst[j] = float64(math.Float32frombits(bits))
			}
			continue
		}
		var dst []int32
		c.Codes, dst = extend(c.Codes, k)
		top := int32(0)
		switch w {
		case 1:
			for j, p := 0, 0; j < k; j, p = j+1, p+recBytes {
				dst[j] = int32(cells[p])
				top = max(top, dst[j])
			}
		case 2:
			for j, p := 0, 0; j < k; j, p = j+1, p+recBytes {
				dst[j] = int32(binary.LittleEndian.Uint16(cells[p : p+2]))
				top = max(top, dst[j])
			}
		default:
			for j, p := 0, 0; j < k; j, p = j+1, p+recBytes {
				dst[j] = cellCode(cells[p : p+w])
				top = max(top, dst[j])
			}
		}
		if int(top) >= len(c.Dict) {
			return false
		}
	}
	return true
}

// extend grows s by k elements and returns it with its new tail.
func extend[T any](s []T, k int) (grown, tail []T) {
	n := len(s)
	s = slices.Grow(s, k)[:n+k]
	return s, s[n:]
}

// recordError walks rec, the bytes from record r on that a block read got
// before readErr, field by field and returns the error of the first field
// it cannot decode: a code outside its dictionary, or a field the stream
// cut, reported as reading field by field would, io.EOF when the field
// got no byte and io.ErrUnexpectedEOF when it got some.
func recordError(cols []*Column, rec []byte, readErr error, widths []int, r uint64) error {
	for ; ; r++ {
		for i, c := range cols {
			w := widths[i]
			if len(rec) < w {
				if readErr == io.EOF || readErr == io.ErrUnexpectedEOF {
					readErr = io.ErrUnexpectedEOF
					if len(rec) == 0 {
						readErr = io.EOF
					}
				}
				return fmt.Errorf("table: reading record %d: %w", r, readErr)
			}
			if code := cellCode(rec[:w]); c.Kind == Categorical && int(code) >= len(c.Dict) {
				return fmt.Errorf("table: record %d has code %d outside dictionary of %d", r, code, len(c.Dict))
			}
			rec = rec[w:]
		}
	}
}

// cellCode decodes a categorical cell, a little-endian code of 1–4 bytes.
func cellCode(cell []byte) int32 {
	var v uint32
	for i := len(cell) - 1; i >= 0; i-- {
		v = v<<8 | uint32(cell[i])
	}
	return int32(v)
}

// AppendSchema appends the schema header shared by the raw, SPARC4,
// fascicle and pzip formats to dst: the column count, then per attribute
// its name, kind byte and, for a categorical attribute, its dictionary
// (entry count, then the entries). Strings are a uvarint length and the
// bytes. dicts[i] is read only for categorical attributes.
func AppendSchema(dst []byte, s Schema, dicts [][]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for i, a := range s {
		dst = append(binary.AppendUvarint(dst, uint64(len(a.Name))), a.Name...)
		dst = append(dst, byte(a.Kind))
		if a.Kind != Categorical {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(dicts[i])))
		for _, v := range dicts[i] {
			dst = append(binary.AppendUvarint(dst, uint64(len(v))), v...)
		}
	}
	return dst
}

// ReadSchema reads a schema header written by AppendSchema and returns
// the schema with each attribute's dictionary (nil for numeric ones). It
// refuses a column count of 0 or over maxCols, a dictionary of more than
// maxDict entries and a string longer than 2^24 bytes before allocating
// for them. Errors carry no package prefix; callers add their own.
func ReadSchema(r interface {
	io.Reader
	io.ByteReader
}, maxCols, maxDict uint64) (Schema, [][]string, error) {
	ncols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, fmt.Errorf("reading column count: %w", err)
	}
	if ncols == 0 || ncols > maxCols {
		return nil, nil, fmt.Errorf("column count %d outside limit %d", ncols, maxCols)
	}
	schema := make(Schema, ncols)
	dicts := make([][]string, ncols)
	for i := range schema {
		name, err := readString(r)
		if err != nil {
			return nil, nil, fmt.Errorf("reading attribute name: %w", err)
		}
		kb, err := r.ReadByte()
		if err != nil {
			return nil, nil, fmt.Errorf("reading attribute kind: %w", err)
		}
		kind := Kind(kb)
		if kind != Numeric && kind != Categorical {
			return nil, nil, fmt.Errorf("unknown attribute kind %d", kb)
		}
		schema[i] = Attribute{Name: name, Kind: kind}
		if kind != Categorical {
			continue
		}
		dlen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, nil, fmt.Errorf("reading dictionary size: %w", err)
		}
		if dlen > maxDict {
			return nil, nil, fmt.Errorf("dictionary size %d exceeds limit %d", dlen, maxDict)
		}
		// Grow incrementally so a lying header cannot force a huge
		// allocation before the stream runs out.
		dict := make([]string, 0, min(dlen, 1<<12))
		for d := uint64(0); d < dlen; d++ {
			v, err := readString(r)
			if err != nil {
				return nil, nil, fmt.Errorf("reading dictionary entry: %w", err)
			}
			dict = append(dict, v)
		}
		dicts[i] = dict
	}
	return schema, dicts, nil
}

// byteReader is what ReadSchema reads from.
type byteReader interface {
	io.Reader
	io.ByteReader
}

func readString(r byteReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
