package cart

import (
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

// AppendBinary appends the model's target, kind and tree to dst. Its
// outliers are not written; see AppendOutliers.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(m.Target))
	dst = append(dst, byte(m.TargetKind))
	return appendNode(dst, m.Root, m.TargetKind)
}

// DecodeModel reads a model written by AppendBinary, consuming exactly
// its bytes of br. The returned model has no outliers. A numeric leaf
// value must be finite.
func DecodeModel(br interface {
	io.Reader
	io.ByteReader
}) (*Model, error) {
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

// AppendOutliers appends the outliers of a target of the given kind to
// dst. They must be in increasing row order, as the outlier scan
// produces them.
func AppendOutliers(dst []byte, kind table.Kind, outliers []Outlier) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(outliers)))
	prev := 0
	for _, o := range outliers {
		if o.Row < prev {
			return nil, fmt.Errorf("cart: outliers not in increasing row order (%d after %d)", o.Row, prev)
		}
		dst = binary.AppendUvarint(dst, uint64(o.Row-prev))
		prev = o.Row
		if kind == table.Numeric {
			dst = appendFloat32(dst, o.Num)
		} else {
			dst = binary.AppendUvarint(dst, uint64(o.Code))
		}
	}
	return dst, nil
}

// DecodeOutliers reads outliers written by AppendOutliers for a target
// of the given kind, consuming exactly their bytes of br. Every row must
// lie in [0, rows), every numeric value must be finite and, for a
// categorical target, every code in [0, dictSize): a decoded outlier is
// then safe to patch into a reconstructed column.
func DecodeOutliers(br interface {
	io.Reader
	io.ByteReader
}, kind table.Kind, rows, dictSize int) ([]Outlier, error) {
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

func appendNode(dst []byte, n *Node, kind table.Kind) ([]byte, error) {
	if n == nil {
		return nil, fmt.Errorf("cart: nil node in tree")
	}
	switch {
	case n.Leaf && kind == table.Numeric:
		return appendFloat32(append(dst, tagLeafNum), n.NumValue), nil
	case n.Leaf:
		return binary.AppendUvarint(append(dst, tagLeafCat), uint64(n.CatValue)), nil
	case n.SplitIsCat:
		dst = binary.AppendUvarint(append(dst, tagInternalCat), uint64(n.SplitAttr))
		dst = binary.AppendUvarint(dst, uint64(len(n.SplitLeft)))
		for _, c := range n.SplitLeft {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
	default:
		dst = binary.AppendUvarint(append(dst, tagInternalNum), uint64(n.SplitAttr))
		dst = appendFloat32(dst, n.SplitValue)
	}
	dst, err := appendNode(dst, n.Left, kind)
	if err != nil {
		return nil, err
	}
	return appendNode(dst, n.Right, kind)
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

func appendFloat32(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
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

// byteReader is what the decoders read from: a reader with ReadByte
// (bytes.Reader, bytes.Buffer) reads no further than the bytes a decoder
// consumes, so the next one can continue from the same reader.
type byteReader interface {
	io.Reader
	io.ByteReader
}
