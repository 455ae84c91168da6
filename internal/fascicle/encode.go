package fascicle

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/table"
)

// Standalone fascicle compression (the baseline of paper §4.1): the table
// is stored as a set of fascicles (compact attributes once per fascicle,
// other attributes per row) plus leftover rows. Like the paper's
// treatment, the table is an unordered multiset — decompression returns
// rows grouped by fascicle, not in the original order.

const fascicleMagic = "SPFAS1\n"

// Compress clusters the table and encodes the clustering. When gzipPayload
// is true the encoded body is additionally deflated, as the standalone
// fascicle baseline stores it. SPARTAN's pipeline uses neither this
// stream nor Cluster: its RowAggregator snaps T′ to a grid and the codec
// writes that T′ in its own format.
func Compress(t *table.Table, p Params, gzipPayload bool) ([]byte, error) {
	c, err := Cluster(t, p)
	if err != nil {
		return nil, err
	}
	return c.Encode(t, gzipPayload)
}

// Encode serializes the clustering against its source table.
func (c *Clustering) Encode(t *table.Table, gzipPayload bool) ([]byte, error) {
	body := table.AppendSchema(nil, t.Schema(), t.Dicts())
	body = binary.AppendUvarint(body, uint64(len(c.Fascicles)))
	for i := range c.Fascicles {
		body = appendFascicle(body, t, &c.Fascicles[i])
	}
	body = binary.AppendUvarint(body, uint64(len(c.Leftover)))
	for _, r := range c.Leftover {
		body = appendRow(body, t, r, nil)
	}

	var out bytes.Buffer
	out.WriteString(fascicleMagic)
	if gzipPayload {
		out.WriteByte(1)
		zw := gzip.NewWriter(&out)
		if _, err := zw.Write(body); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
	} else {
		out.WriteByte(0)
		out.Write(body)
	}
	return out.Bytes(), nil
}

func appendFascicle(b []byte, t *table.Table, f *Fascicle) []byte {
	b = binary.AppendUvarint(b, uint64(len(f.CompactAttrs)))
	for j, attr := range f.CompactAttrs {
		b = binary.AppendUvarint(b, uint64(attr))
		if t.Attr(attr).Kind == table.Numeric {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.NumReps[j]))
		} else {
			b = binary.AppendUvarint(b, uint64(f.CatReps[j]))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(f.Rows)))
	compact := make(map[int]bool, len(f.CompactAttrs))
	for _, a := range f.CompactAttrs {
		compact[a] = true
	}
	for _, r := range f.Rows {
		b = appendRow(b, t, r, compact)
	}
	return b
}

// appendRow appends the row's values for all attributes not in skip.
// Numeric cells are 4-byte floats (the raw record width), categorical
// cells are uvarint codes.
func appendRow(b []byte, t *table.Table, row int, skip map[int]bool) []byte {
	for a := 0; a < t.NumCols(); a++ {
		if skip[a] {
			continue
		}
		if t.Attr(a).Kind == table.Numeric {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(t.Float(row, a))))
		} else {
			b = binary.AppendUvarint(b, uint64(t.Code(row, a)))
		}
	}
	return b
}

// Decompress decodes a stream produced by Compress/Encode. Row order
// follows fascicle grouping, not the original table order; values of
// compact attributes are the fascicle representatives.
func Decompress(data []byte) (*table.Table, error) {
	if len(data) < len(fascicleMagic)+1 || string(data[:len(fascicleMagic)]) != fascicleMagic {
		return nil, fmt.Errorf("fascicle: bad magic")
	}
	rest := data[len(fascicleMagic):]
	var body io.Reader = bytes.NewReader(rest[1:])
	if rest[0] == 1 {
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, fmt.Errorf("fascicle: opening gzip payload: %w", err)
		}
		defer zr.Close()
		body = zr
	}
	br := bufio.NewReader(body)
	// Float cells are read through one buffer: an array local to each
	// read would escape to the heap through io.ReadFull on every cell.
	scratch := make([]byte, 8)
	schema, dicts, err := table.ReadSchema(br, 1<<16, 1<<22)
	if err != nil {
		return nil, fmt.Errorf("fascicle: %w", err)
	}
	ncols := len(schema)
	cols := make([]*table.Column, ncols)
	for i := range cols {
		cols[i] = &table.Column{Kind: schema[i].Kind, Dict: dicts[i]}
	}
	appendCell := func(a int, num float64, code int64) error {
		if schema[a].Kind == table.Numeric {
			cols[a].Floats = append(cols[a].Floats, num)
			return nil
		}
		if code < 0 || int(code) >= len(dicts[a]) {
			return fmt.Errorf("fascicle: code %d outside dictionary of %q", code, schema[a].Name)
		}
		cols[a].Codes = append(cols[a].Codes, int32(code))
		return nil
	}
	readRow := func(skip map[int]bool, reps map[int][2]any) error {
		for a := 0; a < ncols; a++ {
			if skip[a] {
				rep := reps[a]
				if err := appendCell(a, rep[0].(float64), rep[1].(int64)); err != nil {
					return err
				}
				continue
			}
			if schema[a].Kind == table.Numeric {
				v, err := readFloat32(br, scratch)
				if err != nil {
					return err
				}
				if err := appendCell(a, v, 0); err != nil {
					return err
				}
			} else {
				c, err := binary.ReadUvarint(br)
				if err != nil {
					return err
				}
				if err := appendCell(a, 0, int64(c)); err != nil {
					return err
				}
			}
		}
		return nil
	}

	nfas, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("fascicle: reading fascicle count: %w", err)
	}
	if nfas > 1<<22 {
		return nil, fmt.Errorf("fascicle: implausible fascicle count %d", nfas)
	}
	// Cumulative row cap bounds work even against deflate bombs.
	const maxRows = 1 << 26
	totalRows := uint64(0)
	for i := uint64(0); i < nfas; i++ {
		k, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if k > uint64(ncols) {
			return nil, fmt.Errorf("fascicle: %d compact attributes for %d columns", k, ncols)
		}
		skip := make(map[int]bool, int(k))
		reps := make(map[int][2]any, int(k))
		for j := uint64(0); j < k; j++ {
			attrU, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			// Compare before converting: int() wraps a varint ≥ 2^63
			// negative, which would pass attr >= ncols.
			if attrU >= uint64(ncols) {
				return nil, fmt.Errorf("fascicle: compact attribute %d out of range", attrU)
			}
			attr := int(attrU)
			skip[attr] = true
			if schema[attr].Kind == table.Numeric {
				v, err := readFloat64(br, scratch)
				if err != nil {
					return nil, err
				}
				reps[attr] = [2]any{v, int64(0)}
			} else {
				c, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				reps[attr] = [2]any{0.0, int64(c)}
			}
		}
		rows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		totalRows += rows
		if totalRows > maxRows {
			return nil, fmt.Errorf("fascicle: more than %d rows in stream", maxRows)
		}
		for r := uint64(0); r < rows; r++ {
			if err := readRow(skip, reps); err != nil {
				return nil, err
			}
		}
	}
	nleft, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("fascicle: reading leftover count: %w", err)
	}
	if totalRows+nleft > maxRows {
		return nil, fmt.Errorf("fascicle: more than %d rows in stream", maxRows)
	}
	for r := uint64(0); r < nleft; r++ {
		if err := readRow(nil, nil); err != nil {
			return nil, err
		}
	}
	return table.New(schema, cols)
}

// readFloat64 reads an 8-byte float through scratch.
func readFloat64(br *bufio.Reader, scratch []byte) (float64, error) {
	if _, err := io.ReadFull(br, scratch[:8]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(scratch)), nil
}

// readFloat32 reads a 4-byte float cell through scratch.
func readFloat32(br *bufio.Reader, scratch []byte) (float64, error) {
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return 0, err
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(scratch))), nil
}
