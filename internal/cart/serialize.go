package cart

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/table"
)

// Model wire format (used inside the compressed-table codec). A model's
// tree lives in the codec's model block, shared by every body encoded
// against it; its outliers live in each body, since they depend on the
// rows:
//
//	model   := target(uvarint) kind(byte) tree
//	tree    := leafNum | leafCat | internalNum | internalCat
//	leafNum := 0x00 float32
//	leafCat := 0x01 uvarint(code)
//	internalNum := 0x02 uvarint(attr) float32(threshold) tree tree
//	internalCat := 0x03 uvarint(attr) uvarint(k) k*uvarint(code) tree tree
//	outliers := uvarint(count) count*(uvarint(rowDelta) value)
//
// Row ids are delta-encoded (outliers are generated in increasing row
// order), values are float32 for numeric targets (the cell wire format;
// the builder rounds predictions and thresholds through float32, so this
// is exact) and uvarint codes for categorical targets.

const (
	tagLeafNum byte = iota
	tagLeafCat
	tagInternalNum
	tagInternalCat
)

// Encode writes the model's target, kind and tree to w. Its outliers are
// not written; see EncodeOutliers.
func (m *Model) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := putUvarint(bw, uint64(m.Target)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(m.TargetKind)); err != nil {
		return err
	}
	if err := encodeNode(bw, m.Root, m.TargetKind); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeModel reads a model written by Encode. The returned model has no
// outliers. A numeric leaf value must be finite.
func DecodeModel(r io.Reader) (*Model, error) {
	br := asByteReader(r)
	target, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("cart: reading model target: %w", err)
	}
	if target > 1<<30 {
		return nil, fmt.Errorf("cart: implausible target attribute %d", target)
	}
	kindByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cart: reading model kind: %w", err)
	}
	kind := table.Kind(kindByte)
	if kind != table.Numeric && kind != table.Categorical {
		return nil, fmt.Errorf("cart: unknown target kind %d", kindByte)
	}
	root, err := decodeNode(br, kind, 0)
	if err != nil {
		return nil, err
	}
	return &Model{Target: int(target), TargetKind: kind, Root: root}, nil
}

// EncodeOutliers writes the outliers of a target of the given kind to w.
// They must be in increasing row order, as the outlier scan produces
// them.
func EncodeOutliers(w io.Writer, kind table.Kind, outliers []Outlier) error {
	bw := bufio.NewWriter(w)
	if err := putUvarint(bw, uint64(len(outliers))); err != nil {
		return err
	}
	prev := 0
	for _, o := range outliers {
		if o.Row < prev {
			return fmt.Errorf("cart: outliers not in increasing row order (%d after %d)", o.Row, prev)
		}
		if err := putUvarint(bw, uint64(o.Row-prev)); err != nil {
			return err
		}
		prev = o.Row
		if kind == table.Numeric {
			if err := putFloat32(bw, o.Num); err != nil {
				return err
			}
		} else if err := putUvarint(bw, uint64(o.Code)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeOutliers reads outliers written by EncodeOutliers for a target of
// the given kind. Every row must lie in [0, rows), every numeric value
// must be finite and, for a categorical target, every code in
// [0, dictSize): a decoded outlier is then safe to patch into a
// reconstructed column.
func DecodeOutliers(r io.Reader, kind table.Kind, rows, dictSize int) ([]Outlier, error) {
	br := asByteReader(r)
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("cart: reading outlier count: %w", err)
	}
	if count > 1<<30 || count > uint64(rows) {
		return nil, fmt.Errorf("cart: %d outliers for %d rows", count, rows)
	}
	out := make([]Outlier, 0, min(int(count), 1<<12))
	row := 0
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("cart: reading outlier row: %w", err)
		}
		// A huge delta narrowed to int would wrap negative, and a
		// negative Row sails under the `row >= rows` check below
		// straight into a slice-index panic. Bound it first.
		if delta > 1<<30 {
			return nil, fmt.Errorf("cart: implausible outlier row delta %d", delta)
		}
		row += int(delta)
		if row >= rows {
			return nil, fmt.Errorf("cart: outlier row %d beyond %d rows", row, rows)
		}
		o := Outlier{Row: row}
		if kind == table.Numeric {
			o.Num, err = readFloat32(br)
			if err == nil && (math.IsNaN(o.Num) || math.IsInf(o.Num, 0)) {
				return nil, fmt.Errorf("cart: outlier value %g is not finite", o.Num)
			}
		} else {
			var code uint64
			if code, err = binary.ReadUvarint(br); err == nil {
				if code > math.MaxInt32 || code >= uint64(dictSize) {
					return nil, fmt.Errorf("cart: outlier code %d outside dictionary of %d", code, dictSize)
				}
				o.Code = int32(code)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("cart: reading outlier value: %w", err)
		}
		out = append(out, o)
	}
	return out, nil
}

func encodeNode(bw *bufio.Writer, n *Node, kind table.Kind) error {
	if n == nil {
		return fmt.Errorf("cart: nil node in tree")
	}
	if n.Leaf {
		if kind == table.Numeric {
			if err := bw.WriteByte(tagLeafNum); err != nil {
				return err
			}
			return putFloat32(bw, n.NumValue)
		}
		if err := bw.WriteByte(tagLeafCat); err != nil {
			return err
		}
		return putUvarint(bw, uint64(n.CatValue))
	}
	if n.SplitIsCat {
		if err := bw.WriteByte(tagInternalCat); err != nil {
			return err
		}
		if err := putUvarint(bw, uint64(n.SplitAttr)); err != nil {
			return err
		}
		if err := putUvarint(bw, uint64(len(n.SplitLeft))); err != nil {
			return err
		}
		for _, c := range n.SplitLeft {
			if err := putUvarint(bw, uint64(c)); err != nil {
				return err
			}
		}
	} else {
		if err := bw.WriteByte(tagInternalNum); err != nil {
			return err
		}
		if err := putUvarint(bw, uint64(n.SplitAttr)); err != nil {
			return err
		}
		if err := putFloat32(bw, n.SplitValue); err != nil {
			return err
		}
	}
	if err := encodeNode(bw, n.Left, kind); err != nil {
		return err
	}
	return encodeNode(bw, n.Right, kind)
}

const maxTreeDepth = 512 // defends against malformed recursive input

func decodeNode(br byteReader, kind table.Kind, depth int) (*Node, error) {
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("cart: tree deeper than %d; corrupt stream", maxTreeDepth)
	}
	tag, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cart: reading node tag: %w", err)
	}
	switch tag {
	case tagLeafNum:
		if kind != table.Numeric {
			return nil, fmt.Errorf("cart: numeric leaf in categorical model")
		}
		v, err := readFloat32(br)
		if err != nil {
			return nil, err
		}
		// A decoded column must be finite, and no writer stores a NaN or
		// an infinity, so refuse one here rather than after reconstruction.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("cart: numeric leaf value %g is not finite", v)
		}
		return &Node{Leaf: true, NumValue: v}, nil
	case tagLeafCat:
		if kind != table.Categorical {
			return nil, fmt.Errorf("cart: categorical leaf in numeric model")
		}
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if c > math.MaxInt32 {
			return nil, fmt.Errorf("cart: leaf code %d overflows int32", c)
		}
		return &Node{Leaf: true, CatValue: int32(c)}, nil
	case tagInternalNum, tagInternalCat:
		attr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if attr > 1<<30 {
			return nil, fmt.Errorf("cart: implausible split attribute %d", attr)
		}
		n := &Node{SplitAttr: int(attr)}
		if tag == tagInternalCat {
			n.SplitIsCat = true
			k, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if k > 1<<20 {
				return nil, fmt.Errorf("cart: implausible split set size %d", k)
			}
			n.SplitLeft = make([]int32, 0, min(int(k), 1<<12))
			for i := uint64(0); i < k; i++ {
				c, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				if c > math.MaxInt32 {
					return nil, fmt.Errorf("cart: split code %d overflows int32", c)
				}
				n.SplitLeft = append(n.SplitLeft, int32(c))
			}
		} else {
			n.SplitValue, err = readFloat32(br)
			if err != nil {
				return nil, err
			}
		}
		if n.Left, err = decodeNode(br, kind, depth+1); err != nil {
			return nil, err
		}
		if n.Right, err = decodeNode(br, kind, depth+1); err != nil {
			return nil, err
		}
		return n, nil
	default:
		return nil, fmt.Errorf("cart: unknown node tag %d", tag)
	}
}

// putUvarint and putFloat32 append into the writer's free buffer, so
// writing an outlier does not heap-allocate a scratch array per value.
func putUvarint(bw *bufio.Writer, v uint64) error {
	_, err := bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
	return err
}

func putFloat32(bw *bufio.Writer, v float64) error {
	_, err := bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), math.Float32bits(float32(v))))
	return err
}

// readFloat32 reads the four little-endian bytes one ReadByte at a
// time: a scratch array passed to Read through the byteReader interface
// would escape, a heap allocation per value. Its errors are
// io.ReadFull's: io.EOF before the first byte, io.ErrUnexpectedEOF
// after it.
func readFloat32(br byteReader) (float64, error) {
	var bits uint32
	for i := 0; i < 4; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		bits |= uint32(b) << (8 * i)
	}
	return float64(math.Float32frombits(bits)), nil
}

// byteReader is what the decoders read from. Readers that already have
// ReadByte (bufio.Reader, bytes.Reader, bytes.Buffer) are used as they
// are, so a decoder consumes exactly its own bytes and the next one can
// continue from the same reader.
type byteReader interface {
	io.Reader
	io.ByteReader
}

func asByteReader(r io.Reader) byteReader {
	if br, ok := r.(byteReader); ok {
		return br
	}
	return bufio.NewReader(r)
}
