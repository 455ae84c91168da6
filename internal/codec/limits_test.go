package codec

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/table"
)

// hostileBuf builds model blocks and bodies byte-by-byte so tests can
// forge headers the encoder would never emit (claimed sizes with no
// payload behind them).
type hostileBuf struct{ bytes.Buffer }

func (b *hostileBuf) b1(c byte) { _ = b.WriteByte(c) }

func (b *hostileBuf) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, _ = b.Write(buf[:n]) // bytes.Buffer writes cannot fail
}

func (b *hostileBuf) str(s string) {
	b.uvarint(uint64(len(s)))
	_, _ = b.WriteString(s)
}

func (b *hostileBuf) f32(v float32) {
	_, _ = b.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
}

// tols writes a recorded tolerance vector, the float64s after the schema.
func (b *hostileBuf) tols(vs ...float64) {
	for _, v := range vs {
		_, _ = b.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

// checked writes payload as a section with a correct length and CRC, the
// framing of the model block and of a body's outliers.
func (b *hostileBuf) checked(payload []byte) {
	b.uvarint(uint64(len(payload)))
	_, _ = b.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
	_, _ = b.Write(payload)
}

// container wraps a hand-built model block, and body unless it is nil,
// in a container through Writer's own framing, footer and trailer code.
// schema lays out the segment's zone maps; the footer records zero rows,
// so the body's own claims reach its decoder.
func container(block, body []byte, schema table.Schema) []byte {
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	if body != nil {
		_ = cw.WriteSegment(body, 0, make([]ZoneMap, len(schema))) // bytes.Buffer writes cannot fail
	}
	_ = cw.finish(block, schema)
	return buf.Bytes()
}

// blockOnly wraps a model block payload in a container with no segment.
func blockOnly(payload []byte) []byte {
	var block hostileBuf
	block.checked(payload)
	return container(block.Bytes(), nil, nil)
}

// col writes one schema column: name, kind and, for a categorical
// column, its dictionary.
func (b *hostileBuf) col(name string, kind table.Kind, dict ...string) {
	b.str(name)
	b.b1(byte(kind))
	if kind == table.Categorical {
		b.uvarint(uint64(len(dict)))
		for _, s := range dict {
			b.str(s)
		}
	}
}

var oneNumeric = table.Schema{{Name: "a", Kind: table.Numeric}}

// oneColumnBlock is a valid model block for a one-column table whose
// column is materialized: no models.
func oneColumnBlock(kind table.Kind, dict ...string) []byte {
	var b, p hostileBuf
	p.uvarint(1) // ncols
	p.col("a", kind, dict...)
	p.tols(0)
	p.uvarint(1) // nmat
	p.uvarint(0) // materialized attribute 0
	p.uvarint(0) // nmodels
	b.checked(p.Bytes())
	return b.Bytes()
}

func oneNumericBlock() []byte { return oneColumnBlock(table.Numeric) }

// forged is one T' frame and the frame-index entry that locates it,
// whose claims a test may set to lie.
type forged struct {
	data []byte // the frame
	len  uint64 // its indexed byte length
	raw  uint64 // its indexed inflated length
	crc  uint32 // its indexed CRC-32
}

// deflated deflates raw cells at level into a frame with a truthful
// index entry. flate.NoCompression stores them, so the frame's length
// grows with the cells and a body can claim up to maxDeflateRatio rows
// per stored byte.
func deflated(level int, raw []byte) forged {
	var f bytes.Buffer
	zw, _ := flate.NewWriter(&f, level) // level is a valid constant
	_, _ = zw.Write(raw)                // a bytes.Buffer sink cannot fail
	_ = zw.Close()
	return forged{data: f.Bytes(), len: uint64(f.Len()), raw: uint64(len(raw)), crc: crc32.ChecksumIEEE(f.Bytes())}
}

// tprimeOf lays out a T' block: the index of the frames' entries, then
// their bytes.
func tprimeOf(frames ...forged) []byte {
	var b hostileBuf
	for _, f := range frames {
		b.uvarint(f.len)
		b.uvarint(f.raw)
		_, _ = b.Write(binary.LittleEndian.AppendUint32(nil, f.crc))
	}
	for _, f := range frames {
		_, _ = b.Write(f.data)
	}
	return b.Bytes()
}

// tprime deflates each materialized column's raw cells at level into its
// own frame and lays them out as a T' block.
func tprime(level int, cols ...[]byte) []byte {
	frames := make([]forged, len(cols))
	for i, c := range cols {
		frames[i] = deflated(level, c)
	}
	return tprimeOf(frames...)
}

// body is a body of nrows rows, no outliers (its block has no models)
// and the T' block tp.
func body(nrows uint64, tp []byte) []byte {
	var b hostileBuf
	b.uvarint(nrows)
	b.checked(nil)
	b.uvarint(uint64(len(tp)))
	_, _ = b.Write(tp)
	return b.Bytes()
}

// forge lays out a container by hand: the magic, pad zero bytes, the
// segment terminator, the model block, the footer foot writes given the
// block's true offset, and a trailer that checksums the footer. It
// reaches footers Writer never emits.
func forge(block []byte, pad int, foot func(f *hostileBuf, blockOff uint64)) []byte {
	var out, f hostileBuf
	_, _ = out.WriteString(magic) // bytes.Buffer writes cannot fail
	_, _ = out.Write(make([]byte, pad+1))
	foot(&f, uint64(out.Len()))
	_, _ = out.Write(block)
	_, _ = out.Write(f.Bytes())
	_, _ = out.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(f.Bytes())))
	_, _ = out.Write(binary.LittleEndian.AppendUint32(nil, uint32(f.Len())))
	_, _ = out.WriteString(endMagic)
	return out.Bytes()
}

// twoColumnBlock is a model block for (x numeric, y) with x materialized
// and y predicted by the one-node tree leaf.
func twoColumnBlock(yKind table.Kind, dict []string, leaf func(*hostileBuf)) []byte {
	var b, p hostileBuf
	p.uvarint(2) // ncols
	p.col("x", table.Numeric)
	p.col("y", yKind, dict...)
	p.tols(0, 0)
	p.uvarint(1) // nmat
	p.uvarint(0) // x
	p.uvarint(1) // nmodels
	p.uvarint(1) // target y
	p.b1(byte(yKind))
	leaf(&p)
	b.checked(p.Bytes())
	return b.Bytes()
}

// xcBlock is a model block for (x numeric, c categorical with the one
// value "v"), both materialized: no models.
func xcBlock() []byte {
	var b, p hostileBuf
	p.uvarint(2) // ncols
	p.col("x", table.Numeric)
	p.col("c", table.Categorical, "v")
	p.tols(0, 0)
	p.uvarint(2) // nmat
	p.uvarint(0) // x
	p.uvarint(1) // c
	p.uvarint(0) // nmodels
	b.checked(p.Bytes())
	return b.Bytes()
}

// hostileCase is one input the reader must refuse. Decode reads
// it, or Open and ReadAll under lim when lim is set (for bounds that
// only loosened limits can reach). wantErr is a fragment of the error
// that names the violated bound; for claims a guard admits but no
// payload backs, it is the truncation the decoder runs into. skippedBy,
// when set, names the one attribute whose projection does not read the
// frame holding the bad cells, and so decodes.
type hostileCase struct {
	name      string
	data      []byte
	lim       DecodeLimits
	wantErr   string
	skippedBy string
}

// hostileCases holds one input per guard on a wire count or index in
// codec.go and container.go, and one per chunked-growth clamp. Claims
// past a guard are sized so that, were the guard gone, the decoder would
// allocate tens of megabytes, index out of range or read on to a
// different error; claims a clamp admits would cost 16–256 MB
// unclamped. FuzzDecode seeds its corpus from the same inputs.
func hostileCases() []hostileCase {
	var cases []hostileCase
	add := func(name, wantErr string, data []byte) {
		cases = append(cases, hostileCase{name: name, data: data, wantErr: wantErr})
	}

	// Model block framing and schema.
	var models hostileBuf
	models.uvarint(1 << 40) // model block length
	add("models", "model block length", container(models.Bytes(), nil, nil))

	var cols hostileBuf
	cols.uvarint(1 << 18)
	add("cols", "column count 262144 outside limit", blockOnly(cols.Bytes()))

	var noCols hostileBuf
	noCols.uvarint(0)
	noCols.uvarint(0) // nmat
	noCols.uvarint(0) // nmodels
	add("no-cols", "column count 0 outside limit", blockOnly(noCols.Bytes()))

	var name hostileBuf
	name.uvarint(1)
	name.uvarint(1 << 25) // column name length
	add("name-length", "implausible string length 33554432", blockOnly(name.Bytes()))

	dictOf := func(size uint64) []byte {
		var p hostileBuf
		p.uvarint(1)
		p.str("a")
		p.b1(byte(table.Categorical))
		p.uvarint(size)
		return blockOnly(p.Bytes())
	}
	add("dict", "dictionary size 1099511627776 exceeds limit", dictOf(1<<40))
	// Within MaxDictEntries, but no entry follows: clamp.
	add("dict-unbacked", "EOF", dictOf(1<<22))

	// Materialized list and model count.
	matBlock := func(ncols int, mats []uint64, nmat, nmodels uint64) []byte {
		var p hostileBuf
		p.uvarint(uint64(ncols))
		for i := 0; i < ncols; i++ {
			p.col(string(rune('a'+i)), table.Numeric)
		}
		p.tols(make([]float64, ncols)...)
		p.uvarint(nmat)
		for _, a := range mats {
			p.uvarint(a)
		}
		p.uvarint(nmodels)
		return blockOnly(p.Bytes())
	}
	add("mat-count", "4194304 materialized attributes for 1 columns", matBlock(1, nil, 1<<22, 0))
	add("mat-attr-range", "bad materialized attribute 5", matBlock(1, []uint64{5}, 1, 0))
	add("mat-attr-order", "bad materialized attribute 1", matBlock(2, []uint64{1, 1}, 2, 0))
	add("model-count", "4194304 models for 0 predicted attributes", matBlock(1, []uint64{0}, 1, 1<<22))
	add("model-target", "model 0 has invalid target 0", func() []byte {
		var p hostileBuf
		p.uvarint(2)
		p.col("x", table.Numeric)
		p.col("y", table.Numeric)
		p.tols(0, 0)
		p.uvarint(1) // nmat
		p.uvarint(0) // x
		p.uvarint(1) // nmodels
		p.uvarint(0) // target x, which is materialized
		p.b1(byte(table.Numeric))
		p.b1(0) // numeric leaf
		p.f32(0)
		return blockOnly(p.Bytes())
	}())
	// A model block cut short after its checksum: readChecked's payload
	// read.
	var cut hostileBuf
	cut.uvarint(16)
	_, _ = cut.Write(make([]byte, 4+3)) // CRC, then 3 of the 16 payload bytes
	add("model-block-short", "reading model block: unexpected EOF", container(cut.Bytes(), nil, nil))
	// A tree node tag cart.DecodeModel does not know, in a block whose
	// checksum is valid.
	add("model-node", "decoding model 0: cart:", container(twoColumnBlock(table.Numeric, nil, func(p *hostileBuf) {
		p.b1(0xEE)
	}), nil, nil))
	add("leaf-code", "outside dictionary", container(twoColumnBlock(table.Categorical, []string{"only"}, func(p *hostileBuf) {
		p.b1(1) // categorical leaf
		p.uvarint(5)
	}), nil, nil))

	// Body: row count and outliers.
	var rows hostileBuf
	rows.uvarint(1 << 40)
	add("rows", "row count 1099511627776 exceeds limit", container(oneNumericBlock(), rows.Bytes(), oneNumeric))

	var out, outBody hostileBuf
	outBody.uvarint(2) // nrows
	out.uvarint(1)     // one outlier
	out.uvarint(2)     // row 2
	out.f32(7)
	outBody.checked(out.Bytes())
	xy := table.Schema{{Name: "x", Kind: table.Numeric}, {Name: "y", Kind: table.Numeric}}
	numLeaf := func(p *hostileBuf) {
		p.b1(0) // numeric leaf
		p.f32(0)
	}
	add("outlier-row", "outlier row 2 beyond 2 rows", container(twoColumnBlock(table.Numeric, nil, numLeaf), outBody.Bytes(), xy))

	// Body: the T' block and its claims.
	var tpLen hostileBuf
	tpLen.uvarint(1)
	tpLen.checked(nil)
	tpLen.uvarint(1 << 63)
	add("tprime-length", "implausible T' length 9223372036854775808", container(oneNumericBlock(), tpLen.Bytes(), oneNumeric))

	// 2^30 rows (under the 2^34 default cap) that a 1-byte T' block
	// cannot possibly back.
	add("tprime", "1073741824 rows cannot fit in a 1-byte T' block", container(oneNumericBlock(), body(1<<30, []byte{0}), oneNumeric))

	// A predicted-only table: no T' payload ever backs the row count.
	var unv, unvBlock, unvOut hostileBuf
	unvBlock.uvarint(1)
	unvBlock.col("y", table.Numeric)
	unvBlock.tols(0)
	unvBlock.uvarint(0) // nmat
	unvBlock.uvarint(1) // nmodels
	unvBlock.uvarint(0) // target y
	unvBlock.b1(byte(table.Numeric))
	numLeaf(&unvBlock)
	var unvModel hostileBuf
	unvModel.checked(unvBlock.Bytes())
	unv.uvarint(1<<26 + 1) // nrows: one past MaxUnverifiedRows
	unvOut.uvarint(0)      // no outliers
	unv.checked(unvOut.Bytes())
	unv.uvarint(0) // empty T' block
	add("unverified-rows", "67108865 rows with no materialized columns exceeds limit", container(unvModel.Bytes(), unv.Bytes(), table.Schema{{Name: "y", Kind: table.Numeric}}))

	// The frame index and its frames: a cut entry, a frame past the end
	// of T', bytes after the last frame, an inflated length past what the
	// frame could deliver, a frame that is not deflate data, and one with
	// bytes after its stream.
	var cutIndex hostileBuf
	cutIndex.uvarint(5) // frame length; the inflated length is missing
	add("frame-index-cut", "reading T' frame index entry 0: EOF", container(oneNumericBlock(), body(1, cutIndex.Bytes()), oneNumeric))
	cellFrame := deflated(flate.DefaultCompression, []byte{numEncRaw, 0, 0, 0, 0})
	overrun := cellFrame
	overrun.len++
	add("frame-overrun", fmt.Sprintf("T' frame 0 of %d bytes overruns the %d bytes left", overrun.len, len(cellFrame.data)),
		container(oneNumericBlock(), body(1, tprimeOf(overrun)), oneNumeric))
	add("frames-short", "1 bytes of T' after its last frame", container(oneNumericBlock(),
		body(1, append(tprimeOf(cellFrame), 0)), oneNumeric))
	ratio := cellFrame
	ratio.raw = ratio.len*maxDeflateRatio + 1
	add("frame-ratio", fmt.Sprintf("T' frame 0 of %d bytes cannot inflate to %d bytes", ratio.len, ratio.raw),
		container(oneNumericBlock(), body(1, tprimeOf(ratio)), oneNumeric))
	notDeflate := []byte("not a deflate stream")
	add("frame-not-deflate", "inflating column 0: flate: corrupt input", container(oneNumericBlock(),
		body(1, tprimeOf(forged{data: notDeflate, len: uint64(len(notDeflate)), raw: 5, crc: crc32.ChecksumIEEE(notDeflate)})), oneNumeric))
	trailing := cellFrame
	trailing.data = append(slices.Clip(trailing.data), 0)
	trailing.len++
	trailing.crc = crc32.ChecksumIEEE(trailing.data)
	add("frame-trailing", "inflating column 0: 1 bytes after the deflate stream", container(oneNumericBlock(), body(1, tprimeOf(trailing)), oneNumeric))

	cat := table.Schema{{Name: "a", Kind: table.Categorical}}
	add("column-code", "code 5 outside dictionary of 1", container(oneColumnBlock(table.Categorical, "v"),
		body(1, tprime(flate.DefaultCompression, []byte{5})), cat))

	var numDict hostileBuf
	numDict.b1(numEncDict)
	numDict.uvarint(1 << 22)
	add("numeric-dict-size", "numeric dictionary size 4194304 exceeds limit", container(oneNumericBlock(),
		body(1, tprime(flate.DefaultCompression, numDict.Bytes())), oneNumeric))

	var numIx hostileBuf
	numIx.b1(numEncDict)
	numIx.uvarint(1)
	numIx.f32(0)
	numIx.uvarint(3)
	add("numeric-dict-index", "numeric dictionary index 3 out of range 1", container(oneNumericBlock(),
		body(1, tprime(flate.DefaultCompression, numIx.Bytes())), oneNumeric))

	// Stored T' blocks of ~4 KB and ~8 KB claim the most rows the deflate
	// cross-check admits (over 4 and 8 million) but hold a thousand
	// numeric cells or 8000 codes: the cells cannot back the rows.
	var cells hostileBuf
	cells.b1(numEncRaw)
	for i := 0; i < 1000; i++ {
		cells.f32(float32(i))
	}
	tp := tprime(flate.NoCompression, cells.Bytes())
	add("tprime-short", "cells of at least 4 bytes each cannot fit in 4000 bytes", container(oneNumericBlock(), body(uint64(len(tp))*maxDeflateRatio, tp), oneNumeric))
	tp = tprime(flate.NoCompression, make([]byte, 8000))
	add("tprime-short-codes", "cells of at least 1 bytes each cannot fit in 8000 bytes", container(oneColumnBlock(table.Categorical, "v"),
		body(uint64(len(tp))*maxDeflateRatio, tp), cat))
	var dictShort hostileBuf
	dictShort.b1(numEncDict)
	dictShort.uvarint(1 << 16)
	add("numeric-dict-short", "65536 cells of at least 4 bytes each cannot fit in 0 bytes", container(oneNumericBlock(),
		body(1, tprime(flate.DefaultCompression, dictShort.Bytes())), oneNumeric))
	var ixShort hostileBuf
	ixShort.b1(numEncDict)
	ixShort.uvarint(1)
	ixShort.f32(0)
	tp = tprime(flate.NoCompression, ixShort.Bytes())
	add("numeric-dict-cells-short", "cells of at least 1 bytes each cannot fit in 0 bytes", container(oneNumericBlock(),
		body(uint64(len(tp))*maxDeflateRatio, tp), oneNumeric))
	// Two-byte varints whose second byte is missing: a code, a numeric
	// dictionary's size and a dictionary index.
	add("cell-cut", "row 0: truncated or overlong cell", container(oneColumnBlock(table.Categorical, "v"),
		body(1, tprime(flate.DefaultCompression, []byte{0x80})), cat))
	add("numeric-dict-size-cut", "truncated or overlong numeric dictionary size", container(oneNumericBlock(),
		body(1, tprime(flate.DefaultCompression, []byte{numEncDict, 0x80})), oneNumeric))
	var ixCut hostileBuf
	ixCut.b1(numEncDict)
	ixCut.uvarint(1)
	ixCut.f32(0)
	ixCut.b1(0x80)
	add("numeric-dict-cell-cut", "row 0: truncated or overlong cell", container(oneNumericBlock(),
		body(1, tprime(flate.DefaultCompression, ixCut.Bytes())), oneNumeric))
	// A numeric column with no encoding byte, and a cell past the last
	// column.
	add("numeric-encoding-missing", "reading column 0: unexpected EOF", container(oneNumericBlock(),
		body(1, tprime(flate.DefaultCompression, nil)), oneNumeric))
	add("tprime-trailing", "reading column 0: 1 bytes after its cells", container(oneColumnBlock(table.Categorical, "v"),
		body(1, tprime(flate.DefaultCompression, []byte{0, 0})), cat))

	// A T' length one byte past the end of the body.
	tp = tprime(flate.DefaultCompression, []byte{0})
	var tpOverrun hostileBuf
	tpOverrun.uvarint(1)
	tpOverrun.checked(nil)
	tpOverrun.uvarint(uint64(len(tp) + 1))
	_, _ = tpOverrun.Write(tp)
	add("tprime-overrun", fmt.Sprintf("implausible T' length %d: %d bytes left in the body", len(tp)+1, len(tp)), container(oneColumnBlock(table.Categorical, "v"), tpOverrun.Bytes(), cat))

	// A frame's indexed inflated length lying high and low. The stored
	// ~8 KB frame admits 8 MB of output: were the index trusted as a size
	// up front, the lie would allocate it. The buffer grows only as data
	// arrives, and the stream's length refuses both lies.
	indexed := func(f func(ix *forged)) []byte {
		fr := deflated(flate.NoCompression, make([]byte, 8000))
		f(&fr)
		return container(oneColumnBlock(table.Categorical, "v"), body(8000, tprimeOf(fr)), cat)
	}
	add("frame-raw-high", "stream ends before its indexed", indexed(func(ix *forged) { ix.raw = ix.len * maxDeflateRatio }))
	add("frame-raw-low", "inflating column 0: stream runs past its indexed 1 bytes", indexed(func(ix *forged) { ix.raw = 1 }))

	// Values no writer stores: a non-finite raw cell, numeric-dictionary
	// entry, outlier and leaf. The T' cases sit in column x's frame of a
	// two-column table, so a read of column c alone does not inflate it
	// and decodes; unread-code puts a bad code in c's frame, which a read
	// of x alone skips. outlier-nan's model is not run by a read of x
	// alone. frame-crc-unread breaks the CRC-32 of x's frame, which every
	// read checks.
	xc := table.Schema{{Name: "x", Kind: table.Numeric}, {Name: "c", Kind: table.Categorical}}
	xcBody := func(x []byte, code byte) []byte {
		return body(1, tprime(flate.DefaultCompression, x, []byte{code}))
	}
	// The footer records the body's one row, so the projection that skips
	// the bad frame decodes.
	addSkipped := func(name, wantErr, skippedBy string, x []byte, code byte) {
		var buf bytes.Buffer
		cw := NewWriter(&buf)
		_ = cw.WriteSegment(xcBody(x, code), 1, make([]ZoneMap, len(xc))) // bytes.Buffer writes cannot fail
		_ = cw.finish(xcBlock(), xc)
		cases = append(cases, hostileCase{name: name, data: buf.Bytes(), wantErr: wantErr, skippedBy: skippedBy})
	}
	var infCell hostileBuf
	infCell.b1(numEncRaw)
	infCell.f32(float32(math.Inf(1)))
	addSkipped("numeric-cell-inf", "reading column 0: row 0: value +Inf is not finite", "c", infCell.Bytes(), 0)
	var nanDict hostileBuf
	nanDict.b1(numEncDict)
	nanDict.uvarint(1)
	nanDict.f32(float32(math.NaN()))
	nanDict.uvarint(0)
	addSkipped("numeric-dict-nan", "numeric dictionary entry 0: value NaN is not finite", "c", nanDict.Bytes(), 0)
	xCell := []byte{numEncRaw, 0, 0, 0, 0}
	// c's code 5 is past its one-entry dictionary.
	addSkipped("unread-code", "reading column 1: code 5 outside dictionary of 1", "x", xCell, 5)
	badCRC := deflated(flate.DefaultCompression, xCell)
	badCRC.crc++
	add("frame-crc-unread", "T' frame 0 checksum mismatch", container(xcBlock(),
		body(1, tprimeOf(badCRC, deflated(flate.DefaultCompression, []byte{0}))), xc))
	var nanOut, nanOutBody hostileBuf
	nanOutBody.uvarint(1) // nrows
	nanOut.uvarint(1)     // one outlier
	nanOut.uvarint(0)     // row 0
	nanOut.f32(float32(math.NaN()))
	nanOutBody.checked(nanOut.Bytes())
	xFrame := tprime(flate.DefaultCompression, xCell)
	nanOutBody.uvarint(uint64(len(xFrame)))
	_, _ = nanOutBody.Write(xFrame)
	add("outlier-nan", "outlier value NaN is not finite", container(twoColumnBlock(table.Numeric, nil, numLeaf), nanOutBody.Bytes(), xy))
	add("leaf-inf", "numeric leaf value +Inf is not finite", container(twoColumnBlock(table.Numeric, nil, func(p *hostileBuf) {
		p.b1(0) // numeric leaf
		p.f32(float32(math.Inf(1)))
	}), nil, nil))

	// Trailer and footer.
	trailer := blockOnly(noCols.Bytes())
	binary.LittleEndian.PutUint32(trailer[len(trailer)-trailerSize+4:], uint32(len(trailer)))
	add("footer-length", "trailer claims", trailer)

	// footer writes the model block's extent, then a segment count with
	// no directory entries behind it.
	block := oneNumericBlock()
	footer := func(off, length, nsegs uint64) func(*hostileBuf, uint64) {
		return func(f *hostileBuf, blockOff uint64) {
			if off == 0 {
				off = blockOff
			}
			f.uvarint(off)
			f.uvarint(length)
			f.uvarint(nsegs)
		}
	}
	add("extent-offset", "footer model block offset 1073741824 outside archive",
		forge(block, 0, footer(1<<30, uint64(len(block)), 0)))
	add("extent-length", "footer model block length 549755813888 overruns archive",
		forge(block, 0, footer(0, 1<<39, 0)))
	add("segment-count", "footer claims 1048576 segments in a",
		forge(block, 0, footer(0, uint64(len(block)), 1<<20)))
	// Padded past 2^19 bytes, the archive admits 2^19 segments: clamp.
	add("segment-count-unbacked", "reading segment 0 offset: EOF",
		forge(block, 1<<19, footer(0, uint64(len(block)), 1<<19)))
	add("segments-without-block", "footer claims 1 segments but no model block",
		forge(nil, 0, footer(0, 0, 1)))

	var empty hostileBuf
	empty.uvarint(0) // a zero-row body, cut short after its row count
	add("segment-rows", "footer segment 0 row count 17179869185 exceeds limit", func() []byte {
		var buf bytes.Buffer
		cw := NewWriter(&buf)
		_ = cw.WriteSegment(empty.Bytes(), 1<<34+1, make([]ZoneMap, 1)) // bytes.Buffer writes cannot fail
		_ = cw.finish(oneNumericBlock(), oneNumeric)
		return buf.Bytes()
	}())

	// Per-segment row counts each within a loosened MaxRows, whose sum
	// overflows int.
	var sum bytes.Buffer
	cw := NewWriter(&sum)
	for i := 0; i < 2; i++ {
		_ = cw.WriteSegment(empty.Bytes(), math.MaxInt, make([]ZoneMap, 1))
	}
	_ = cw.finish(oneNumericBlock(), oneNumeric)
	cases = append(cases, hostileCase{name: "row-sum", data: sum.Bytes(), lim: DecodeLimits{MaxRows: math.MaxUint64}, wantErr: "footer row counts overflow"})

	// Past math.MaxInt a row count would narrow to a negative int, which
	// a 2^60-byte T' length claim lets through to the column reader.
	var wrap hostileBuf
	wrap.uvarint(1<<63 + 5) // nrows
	wrap.checked(nil)
	wrap.uvarint(1 << 60) // tpLen
	_, _ = wrap.Write(tprime(flate.DefaultCompression, cells.Bytes()))
	cases = append(cases, hostileCase{name: "rows-past-int", data: container(oneNumericBlock(), wrap.Bytes(), oneNumeric),
		lim: DecodeLimits{MaxRows: math.MaxUint64}, wantErr: "row count 9223372036854775813 exceeds limit 9223372036854775807"})
	return append(cases, toleranceCases()...)
}

// toleranceCases holds one-column archives whose model block records a
// tolerance no writer records, or is cut inside the tolerance vector.
// Each carries a one-row body that decodes cleanly; Open refuses the
// archive from its model block alone, before any body is read.
func toleranceCases() []hostileCase {
	archive := func(kind table.Kind, afterSchema []byte) []byte {
		var b, p hostileBuf
		p.uvarint(1) // ncols
		p.col("a", kind, "v")
		_, _ = p.Write(afterSchema)
		b.checked(p.Bytes())
		cell := []byte{0} // code 0
		if kind == table.Numeric {
			cell = []byte{numEncRaw, 0, 0, 0, 0}
		}
		return container(b.Bytes(), body(1, tprime(flate.DefaultCompression, cell)), table.Schema{{Name: "a", Kind: kind}})
	}
	recorded := func(kind table.Kind, v float64) []byte {
		var p hostileBuf
		p.tols(v)
		p.uvarint(1) // nmat
		p.uvarint(0) // materialized attribute 0
		p.uvarint(0) // nmodels
		return archive(kind, p.Bytes())
	}
	const outOfRange = `recorded tolerance %s of "a" is out of range`
	return []hostileCase{
		{name: "tolerance-cut", data: archive(table.Numeric, make([]byte, 3)),
			wantErr: `reading recorded tolerance of "a": unexpected EOF`},
		{name: "tolerance-nan", data: recorded(table.Numeric, math.NaN()), wantErr: fmt.Sprintf(outOfRange, "NaN")},
		{name: "tolerance-inf", data: recorded(table.Numeric, math.Inf(1)), wantErr: fmt.Sprintf(outOfRange, "+Inf")},
		{name: "tolerance-minus-inf", data: recorded(table.Numeric, math.Inf(-1)), wantErr: fmt.Sprintf(outOfRange, "-Inf")},
		{name: "tolerance-negative", data: recorded(table.Numeric, -0.5), wantErr: fmt.Sprintf(outOfRange, "-0.5")},
		{name: "tolerance-categorical", data: recorded(table.Categorical, 1.5), wantErr: fmt.Sprintf(outOfRange, "1.5")},
	}
}

// TestRecordedToleranceErrors: every toleranceCases archive is refused
// by Open, before any body decodes, with a *ToleranceError.
func TestRecordedToleranceErrors(t *testing.T) {
	for _, tc := range toleranceCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(bytes.NewReader(tc.data), DecodeLimits{})
			var te *ToleranceError
			if !errors.As(err, &te) || te.Attr != "a" {
				t.Errorf("Open error %v, want a *ToleranceError for attribute a", err)
			}
		})
	}
}

// allocDelta runs f and reports how many bytes it allocated. The decoder
// is single-goroutine up to the point the hostile inputs die, so the
// delta is deterministic enough for an order-of-magnitude bound.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRejectsHostileHeaders feeds the reader every hostileCases
// input: claimed sizes past a bound, indexes outside the table, footer
// extents outside the archive, and claims within the bounds that no
// payload backs. Each must be rejected with an error naming the
// violated bound (or the truncation), without panicking and without
// allocating anything near the claimed size.
func TestDecodeRejectsHostileHeaders(t *testing.T) {
	// Far under the smallest claim a missing guard or clamp would
	// allocate (16 MB); far above the decoder's legitimate buffers and
	// the input copy Decode makes.
	const allocLimit = 1 << 22
	for _, tc := range hostileCases() {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			delta := allocDelta(func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoder panicked: %v", r)
					}
				}()
				if tc.lim == (DecodeLimits{}) {
					_, err = Decode(bytes.NewReader(tc.data))
					return
				}
				var cr *Reader
				if cr, err = Open(bytes.NewReader(tc.data), tc.lim); err == nil {
					_, err = cr.ReadAll()
				}
			})
			if err == nil {
				t.Fatal("decoder accepted a hostile input")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if delta > allocLimit {
				t.Errorf("decoder allocated %d bytes rejecting the input, want < %d", delta, allocLimit)
			}
		})
	}
}

// TestProjectedDecodeRefusesHostileBodies reads every hostileCases
// archive that opens under each one-attribute projection
// (Reader.Columns): a query's decode must refuse what a full decode
// refuses, with the same error, even when the offending model is one it
// does not run or the offending frame's index entry or CRC-32 is one it
// does not inflate. Only bad cells inside a frame it does not read go
// unseen: the projection onto a case's skippedBy attribute decodes.
func TestProjectedDecodeRefusesHostileBodies(t *testing.T) {
	skipping := 0
	for _, tc := range hostileCases() {
		cr, err := Open(bytes.NewReader(tc.data), tc.lim)
		if err != nil {
			continue // refused before any body decodes, whatever is read
		}
		idx := make([]int, cr.NumSegments())
		for i := range idx {
			idx[i] = i
		}
		for _, a := range cr.Schema() {
			cols := cr.Columns([]string{a.Name})
			if slices.Contains(cols, false) {
				skipping++
			}
			t.Run(tc.name+"/"+a.Name, func(t *testing.T) {
				_, err := cr.ReadSegments(context.Background(), idx, cols)
				if a.Name == tc.skippedBy {
					if err != nil {
						t.Fatalf("projection that skips the bad frame failed: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatal("projected decode accepted a hostile input")
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("error %q does not mention %q", err, tc.wantErr)
				}
			})
		}
	}
	// outlier-row, outlier-nan and the four xc cases each leave a column
	// out of both of their projections.
	if skipping < 10 {
		t.Errorf("%d projections leave a column out, want at least 10", skipping)
	}
}

// TestPooledStateDoesNotLeak alternates every hostileCases decode with a
// decode of one valid two-segment archive in one process, so pooled flate
// readers and buffers pass from each input to the next: every valid
// decode must equal one made before any hostile input, and every hostile
// input must fail as TestDecodeRejectsHostileHeaders pins it, with the
// error its decode gave before the valid one ran.
func TestPooledStateDoesNotLeak(t *testing.T) {
	decode := func(data []byte, lim DecodeLimits) (*table.Table, error) {
		cr, err := Open(bytes.NewReader(data), lim)
		if err != nil {
			return nil, err
		}
		return cr.ReadAll()
	}
	valid := twoSegments(t, rand.New(rand.NewSource(3)))
	want, err := decode(valid, DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range hostileCases() {
		_, first := decode(tc.data, tc.lim)
		got, err := decode(valid, DecodeLimits{})
		if err != nil {
			t.Fatalf("after %s: valid archive: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: valid archive decoded to a different table", tc.name)
		}
		_, again := decode(tc.data, tc.lim)
		if first == nil || again == nil {
			t.Fatalf("%s: decoder accepted a hostile input (errors %v, then %v)", tc.name, first, again)
		}
		if !strings.Contains(again.Error(), tc.wantErr) || again.Error() != first.Error() {
			t.Errorf("%s: error %q after a valid decode, %q before; want one mentioning %q", tc.name, again, first, tc.wantErr)
		}
	}
}

// TestReadFullGrowingCapped drives the allocation sink directly with
// lengths its callers should never let through: the function must
// enforce the cap it is given itself, erroring before any allocation
// instead of trusting the caller's guard.
func TestReadFullGrowingCapped(t *testing.T) {
	const limit = 1 << 10
	for _, n := range []uint64{limit + 1, 1 << 40, math.MaxUint64} {
		var err error
		delta := allocDelta(func() {
			_, err = readFullGrowing(bytes.NewReader(nil), nil, n, limit)
		})
		if err == nil {
			t.Errorf("n=%d: readFullGrowing accepted a length past the cap", n)
		} else if !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("n=%d: error %q does not name the violated bound", n, err)
		}
		if delta > 1<<16 {
			t.Errorf("n=%d: allocated %d bytes while rejecting the length", n, delta)
		}
	}

	// An in-cap read delivers exactly n bytes, across chunk boundaries.
	payload := bytes.Repeat([]byte{0xab}, 3<<20)
	got, err := readFullGrowing(bytes.NewReader(payload), nil, uint64(len(payload)), math.MaxUint64)
	if err != nil {
		t.Fatalf("in-cap read failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read %d bytes, want %d identical bytes", len(got), len(payload))
	}
	// Truncated input surfaces the read error, not a silent short buffer.
	if _, err := readFullGrowing(bytes.NewReader(payload[:10]), nil, 1000, limit); err == nil {
		t.Error("truncated input did not error")
	}
}

// TestInflateBoundsFrame drives inflate with a tiny frame whose index
// entry claims more than it holds. A claim past what deflate could
// expand the frame to is refused before any allocation; a claim at that
// bound costs at most the bound, kilobytes rather than a 1 MiB chunk,
// and the stream's end refuses it.
func TestInflateBoundsFrame(t *testing.T) {
	f := deflated(flate.DefaultCompression, []byte("abc"))
	bound := f.len * maxDeflateRatio
	for _, tc := range []struct {
		raw     uint64
		wantErr string
	}{
		{math.MaxUint32, "exceeds limit"},
		{bound, "stream ends before its indexed"},
	} {
		var err error
		delta := allocDelta(func() { _, err = inflate(colFrame{data: f.data, raw: tc.raw}, nil) })
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("inflate of a frame claiming %d bytes: error %v, want one mentioning %q", tc.raw, err, tc.wantErr)
		}
		if delta > 1<<18 {
			t.Errorf("inflate of a %d-byte frame claiming %d bytes allocated %d bytes", f.len, tc.raw, delta)
		}
	}
}

// TestDecodeLimitedTightens verifies explicit limits override the
// defaults: a container the default limits accept fails a tightened cap,
// and zero-valued fields keep their defaults.
func TestDecodeLimitedTightens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := testTable(rng, 200)
	mats, models, tols := buildPlan(t, tb, 10)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models, tols); err != nil {
		t.Fatal(err)
	}
	decode := func(lim DecodeLimits) error {
		cr, err := Open(bytes.NewReader(buf.Bytes()), lim)
		if err == nil {
			_, err = cr.ReadAll()
		}
		return err
	}

	if err := decode(DecodeLimits{}); err != nil {
		t.Fatalf("zero-value limits rejected a valid container: %v", err)
	}
	if err := decode(DecodeLimits{MaxRows: 100}); err == nil {
		t.Error("MaxRows=100 accepted a 200-row container")
	}
	if err := decode(DecodeLimits{MaxCols: 1}); err == nil {
		t.Error("MaxCols=1 accepted a multi-column container")
	}
}

// TestCheckDictMatchesReader: the write-side dictionary check refuses
// exactly what the default reader refuses.
func TestCheckDictMatchesReader(t *testing.T) {
	max := int((DecodeLimits{}).withDefaults().MaxDictEntries)
	if err := CheckDict("a", max); err != nil {
		t.Errorf("CheckDict at the limit = %v, want nil", err)
	}
	if err := CheckDict("a", max+1); !errors.Is(err, ErrExceedsLimits) {
		t.Errorf("CheckDict past the limit = %v, want ErrExceedsLimits", err)
	}
	if err := CheckTable(testTable(rand.New(rand.NewSource(7)), 10)); err != nil {
		t.Errorf("CheckTable on a small table = %v, want nil", err)
	}
}
