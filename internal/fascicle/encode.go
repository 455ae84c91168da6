package fascicle

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
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
// fascicle baseline stores it. SPARTAN's codec does not use this stream:
// its RowAggregator quantizes T′ (Clustering.Quantize) and the codec
// writes that T′ in its own format.
func Compress(t *table.Table, p Params, gzipPayload bool) ([]byte, error) {
	c, err := Cluster(context.Background(), t, p)
	if err != nil {
		return nil, err
	}
	return c.Encode(t, gzipPayload)
}

// Encode serializes the clustering against its source table.
func (c *Clustering) Encode(t *table.Table, gzipPayload bool) ([]byte, error) {
	var body bytes.Buffer
	bw := bufio.NewWriter(&body)
	if err := table.WriteSchema(bw, t.Schema(), t.Dicts()); err != nil {
		return nil, err
	}
	if err := putUvarint(bw, uint64(len(c.Fascicles))); err != nil {
		return nil, err
	}
	for i := range c.Fascicles {
		if err := encodeFascicle(bw, t, &c.Fascicles[i]); err != nil {
			return nil, err
		}
	}
	if err := putUvarint(bw, uint64(len(c.Leftover))); err != nil {
		return nil, err
	}
	for _, r := range c.Leftover {
		if err := writeRow(bw, t, r, nil); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}

	var out bytes.Buffer
	out.WriteString(fascicleMagic)
	if gzipPayload {
		out.WriteByte(1)
		zw := gzip.NewWriter(&out)
		if _, err := zw.Write(body.Bytes()); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
	} else {
		out.WriteByte(0)
		out.Write(body.Bytes())
	}
	return out.Bytes(), nil
}

func encodeFascicle(bw *bufio.Writer, t *table.Table, f *Fascicle) error {
	if err := putUvarint(bw, uint64(len(f.CompactAttrs))); err != nil {
		return err
	}
	for j, attr := range f.CompactAttrs {
		if err := putUvarint(bw, uint64(attr)); err != nil {
			return err
		}
		if t.Attr(attr).Kind == table.Numeric {
			if err := putFloat64(bw, f.NumReps[j]); err != nil {
				return err
			}
		} else if err := putUvarint(bw, uint64(f.CatReps[j])); err != nil {
			return err
		}
	}
	if err := putUvarint(bw, uint64(len(f.Rows))); err != nil {
		return err
	}
	compact := make(map[int]bool, len(f.CompactAttrs))
	for _, a := range f.CompactAttrs {
		compact[a] = true
	}
	for _, r := range f.Rows {
		if err := writeRow(bw, t, r, compact); err != nil {
			return err
		}
	}
	return nil
}

// writeRow writes the row's values for all attributes not in skip. Numeric
// cells are 4-byte floats (the raw record width), categorical cells are
// uvarint codes.
func writeRow(bw *bufio.Writer, t *table.Table, row int, skip map[int]bool) error {
	for a := 0; a < t.NumCols(); a++ {
		if skip[a] {
			continue
		}
		if t.Attr(a).Kind == table.Numeric {
			if err := putFloat32(bw, t.Float(row, a)); err != nil {
				return err
			}
		} else if err := putUvarint(bw, uint64(t.Code(row, a))); err != nil {
			return err
		}
	}
	return nil
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
				v, err := readFloat32(br)
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
				v, err := readFloat64(br)
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

// --- shared low-level helpers ---

func putUvarint(bw *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := bw.Write(buf[:n])
	return err
}

func putFloat64(bw *bufio.Writer, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, err := bw.Write(buf[:])
	return err
}

func readFloat64(br *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

func putFloat32(bw *bufio.Writer, v float64) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(v)))
	_, err := bw.Write(buf[:])
	return err
}

func readFloat32(br *bufio.Reader) (float64, error) {
	var buf [4]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))), nil
}
