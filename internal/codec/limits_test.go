package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
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

var oneNumeric = table.Schema{{Name: "a", Kind: table.Numeric}}

// oneNumericBlock is a valid model block for a one-column numeric table
// whose column is materialized: no models.
func oneNumericBlock() []byte {
	var b, p hostileBuf
	p.uvarint(1) // ncols
	p.str("a")
	p.b1(byte(table.Numeric))
	p.uvarint(1) // nmat
	p.uvarint(0) // materialized attribute 0
	p.uvarint(0) // nmodels
	b.checked(p.Bytes())
	return b.Bytes()
}

// hostileCols claims 2^40 columns.
func hostileCols() []byte {
	var p hostileBuf
	p.uvarint(1 << 40)
	return blockOnly(p.Bytes())
}

// hostileRows claims 2^40 rows in a body of a valid one-column
// model block.
func hostileRows() []byte {
	var body hostileBuf
	body.uvarint(1 << 40)
	return container(oneNumericBlock(), body.Bytes(), oneNumeric)
}

// hostileDict claims a 2^40-entry categorical dictionary.
func hostileDict() []byte {
	var p hostileBuf
	p.uvarint(1)
	p.str("a")
	p.b1(byte(table.Categorical))
	p.uvarint(1 << 40)
	return blockOnly(p.Bytes())
}

// hostileTPrime passes every individual limit but claims a row
// count (2^30, under the 2^34 default cap) that a 1-byte T' block cannot
// possibly back, triggering the payload cross-check.
func hostileTPrime() []byte {
	var body hostileBuf
	body.uvarint(1 << 30) // nrows
	body.checked(nil)     // no models, no outliers
	body.uvarint(1)       // tpLen: one byte for 2^30 claimed rows
	body.b1(0)
	return container(oneNumericBlock(), body.Bytes(), oneNumeric)
}

// hostileShortTPrime claims more rows than its T' block holds, but
// few enough to pass the deflate-ratio cross-check: the T' block is a
// real gzip stream of 10 raw cells, and the column runs out long before
// the claimed count.
func hostileShortTPrime() []byte {
	var cells hostileBuf
	cells.b1(numEncRaw)
	for i := 0; i < 10; i++ {
		cells.f32(float32(i))
	}
	var tp bytes.Buffer
	zw := gzip.NewWriter(&tp)
	_, _ = zw.Write(cells.Bytes()) // a bytes.Buffer sink cannot fail
	_ = zw.Close()

	var body hostileBuf
	body.uvarint(uint64(tp.Len()) * maxDeflateRatio) // nrows: the most the cross-check admits
	body.checked(nil)
	body.uvarint(uint64(tp.Len()))
	_, _ = body.Write(tp.Bytes())
	return container(oneNumericBlock(), body.Bytes(), oneNumeric)
}

// hostileModels claims a 2^40-byte model block.
func hostileModels() []byte {
	var block hostileBuf
	block.uvarint(1 << 40) // model block length
	return container(block.Bytes(), nil, nil)
}

// twoColumnBlock is a model block for (x numeric, y) with x materialized
// and y predicted by the one-node tree leaf.
func twoColumnBlock(yKind table.Kind, dict []string, leaf func(*hostileBuf)) []byte {
	var b, p hostileBuf
	p.uvarint(2) // ncols
	p.str("x")
	p.b1(byte(table.Numeric))
	p.str("y")
	p.b1(byte(yKind))
	if yKind == table.Categorical {
		p.uvarint(uint64(len(dict)))
		for _, s := range dict {
			p.str(s)
		}
	}
	p.uvarint(1) // nmat
	p.uvarint(0) // x
	p.uvarint(1) // nmodels
	p.uvarint(1) // target y
	p.b1(byte(yKind))
	leaf(&p)
	b.checked(p.Bytes())
	return b.Bytes()
}

// hostileLeafCode carries a CaRT whose leaf predicts code 5 of a
// one-entry dictionary.
func hostileLeafCode() []byte {
	block := twoColumnBlock(table.Categorical, []string{"only"}, func(p *hostileBuf) {
		p.b1(1) // categorical leaf
		p.uvarint(5)
	})
	return container(block, nil, nil)
}

// hostileOutlierRow has a valid model block, but its body stores
// an outlier at row 2 of a 2-row body.
func hostileOutlierRow() []byte {
	block := twoColumnBlock(table.Numeric, nil, func(p *hostileBuf) {
		p.b1(0) // numeric leaf
		p.f32(0)
	})
	var body, out hostileBuf
	body.uvarint(2) // nrows
	out.uvarint(1)  // one outlier
	out.uvarint(2)  // row 2
	out.f32(7)
	body.checked(out.Bytes())
	schema := table.Schema{{Name: "x", Kind: table.Numeric}, {Name: "y", Kind: table.Numeric}}
	return container(block, body.Bytes(), schema)
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

// TestDecodeRejectsHostileHeaders feeds Decode containers whose claimed
// sizes (2^40 rows, columns, dictionary entries, model-block bytes; a
// row count no T' payload could deliver, or more rows than the T' block
// holds) or whose contents point outside the table (a CaRT leaf code
// outside the shared dictionary, an outlier row past the body's row
// count) must be rejected — with an error naming the violated bound, and
// without allocating anything near the claimed size.
func TestDecodeRejectsHostileHeaders(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"rows", hostileRows(), "row count"},
		{"cols", hostileCols(), "column count"},
		{"dict", hostileDict(), "dictionary size"},
		{"models", hostileModels(), "model block length"},
		{"tprime", hostileTPrime(), "cannot fit"},
		{"tprime-short", hostileShortTPrime(), "reading column 0"},
		{"leaf-code", hostileLeafCode(), "outside dictionary"},
		{"outlier-row", hostileOutlierRow(), "outlier row 2 beyond 2 rows"},
	}
	// Well under the smallest hostile claim (2^30 rows × 8 bytes); far
	// above the decoder's legitimate buffers.
	const allocLimit = 1 << 22
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			delta := allocDelta(func() {
				_, err = Decode(bytes.NewReader(tc.data))
			})
			if err == nil {
				t.Fatal("Decode accepted a hostile header")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if delta > allocLimit {
				t.Errorf("Decode allocated %d bytes rejecting the header, want < %d", delta, allocLimit)
			}
		})
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
			_, err = readFullGrowing(bytes.NewReader(nil), n, limit)
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
	got, err := readFullGrowing(bytes.NewReader(payload), uint64(len(payload)), math.MaxUint64)
	if err != nil {
		t.Fatalf("in-cap read failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read %d bytes, want %d identical bytes", len(got), len(payload))
	}
	// Truncated input surfaces the read error, not a silent short buffer.
	if _, err := readFullGrowing(bytes.NewReader(payload[:10]), 1000, limit); err == nil {
		t.Error("truncated input did not error")
	}
}

// TestDecodeLimitedTightens verifies explicit limits override the
// defaults: a container the default limits accept fails a tightened cap,
// and zero-valued fields keep their defaults.
func TestDecodeLimitedTightens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := testTable(rng, 200)
	mats, models := buildPlan(t, tb, 10)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models); err != nil {
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
