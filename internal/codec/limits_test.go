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

// hostileBuf builds streams byte-by-byte so tests can forge headers the
// encoder would never emit (claimed sizes with no payload behind them).
type hostileBuf struct{ bytes.Buffer }

func (b *hostileBuf) magic()    { _, _ = b.WriteString(magic) }
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

// oneNumericBlock writes a valid model block for a one-column numeric
// table whose column is materialized: no models.
func (b *hostileBuf) oneNumericBlock() {
	var p hostileBuf
	p.uvarint(1) // ncols
	p.str("a")
	p.b1(byte(table.Numeric))
	p.uvarint(1) // nmat
	p.uvarint(0) // materialized attribute 0
	p.uvarint(0) // nmodels
	b.checked(p.Bytes())
}

// hostileColsStream claims 2^40 columns.
func hostileColsStream() []byte {
	var b, p hostileBuf
	b.magic()
	p.uvarint(1 << 40)
	b.checked(p.Bytes())
	return b.Bytes()
}

// hostileRowsStream claims 2^40 rows behind a valid one-column model
// block.
func hostileRowsStream() []byte {
	var b hostileBuf
	b.magic()
	b.oneNumericBlock()
	b.uvarint(1 << 40)
	return b.Bytes()
}

// hostileDictStream claims a 2^40-entry categorical dictionary.
func hostileDictStream() []byte {
	var b, p hostileBuf
	b.magic()
	p.uvarint(1)
	p.str("a")
	p.b1(byte(table.Categorical))
	p.uvarint(1 << 40)
	b.checked(p.Bytes())
	return b.Bytes()
}

// hostileTPrimeStream passes every individual limit but claims a row
// count (2^30, under the 2^34 default cap) that a 1-byte T' block cannot
// possibly back, triggering the payload cross-check.
func hostileTPrimeStream() []byte {
	var b hostileBuf
	b.magic()
	b.oneNumericBlock()
	b.uvarint(1 << 30) // nrows
	b.checked(nil)     // no models, no outliers
	b.uvarint(1)       // tpLen: one byte for 2^30 claimed rows
	b.b1(0)
	return b.Bytes()
}

// hostileShortTPrimeStream claims more rows than its T' block holds, but
// few enough to pass the deflate-ratio cross-check: the T' block is a
// real gzip stream of 10 raw cells, and the column runs out long before
// the claimed count.
func hostileShortTPrimeStream() []byte {
	var cells hostileBuf
	cells.b1(numEncRaw)
	for i := 0; i < 10; i++ {
		cells.f32(float32(i))
	}
	var tp bytes.Buffer
	zw := gzip.NewWriter(&tp)
	_, _ = zw.Write(cells.Bytes()) // a bytes.Buffer sink cannot fail
	_ = zw.Close()

	var b hostileBuf
	b.magic()
	b.oneNumericBlock()
	b.uvarint(uint64(tp.Len()) * maxDeflateRatio) // nrows: the most the cross-check admits
	b.checked(nil)
	b.uvarint(uint64(tp.Len()))
	_, _ = b.Write(tp.Bytes())
	return b.Bytes()
}

// hostileModelsStream claims a 2^40-byte model block.
func hostileModelsStream() []byte {
	var b hostileBuf
	b.magic()
	b.uvarint(1 << 40) // model block length
	return b.Bytes()
}

// twoColumnBlock writes a model block for (x numeric, y) with x
// materialized and y predicted by the one-node tree leaf.
func (b *hostileBuf) twoColumnBlock(yKind table.Kind, dict []string, leaf func(*hostileBuf)) {
	var p hostileBuf
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
}

// hostileLeafCodeStream carries a CaRT whose leaf predicts code 5 of a
// one-entry dictionary.
func hostileLeafCodeStream() []byte {
	var b hostileBuf
	b.magic()
	b.twoColumnBlock(table.Categorical, []string{"only"}, func(p *hostileBuf) {
		p.b1(1) // categorical leaf
		p.uvarint(5)
	})
	return b.Bytes()
}

// hostileOutlierRowStream has a valid model block, but its body stores
// an outlier at row 2 of a 2-row body.
func hostileOutlierRowStream() []byte {
	var b, out hostileBuf
	b.magic()
	b.twoColumnBlock(table.Numeric, nil, func(p *hostileBuf) {
		p.b1(0) // numeric leaf
		p.f32(0)
	})
	b.uvarint(2)   // nrows
	out.uvarint(1) // one outlier
	out.uvarint(2) // row 2
	out.f32(7)
	b.checked(out.Bytes())
	return b.Bytes()
}

// allocDelta runs f and reports how many bytes it allocated. The decoder
// is single-goroutine up to the point the hostile streams die, so the
// delta is deterministic enough for an order-of-magnitude bound.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRejectsHostileHeaders feeds Decode streams whose claimed
// sizes (2^40 rows, columns, dictionary entries, model-block bytes; a
// row count no T' payload could deliver, or more rows than the T' block
// holds) or whose contents point outside the table (a CaRT leaf code
// outside the shared dictionary, an outlier row past the body's row
// count) must be rejected — with an error naming the violated bound, and
// without allocating anything near the claimed size.
func TestDecodeRejectsHostileHeaders(t *testing.T) {
	cases := []struct {
		name    string
		stream  []byte
		wantErr string
	}{
		{"rows", hostileRowsStream(), "row count"},
		{"cols", hostileColsStream(), "column count"},
		{"dict", hostileDictStream(), "dictionary size"},
		{"models", hostileModelsStream(), "model block length"},
		{"tprime", hostileTPrimeStream(), "cannot fit"},
		{"tprime-short", hostileShortTPrimeStream(), "reading column 0"},
		{"leaf-code", hostileLeafCodeStream(), "outside dictionary"},
		{"outlier-row", hostileOutlierRowStream(), "outlier row 2 beyond 2 rows"},
	}
	// Well under the smallest hostile claim (2^30 rows × 8 bytes); far
	// above the decoder's legitimate buffers.
	const allocLimit = 1 << 22
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			delta := allocDelta(func() {
				_, err = Decode(bytes.NewReader(tc.stream))
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
// enforce the DecodeLimits cap itself, erroring before any allocation
// instead of trusting the caller's guard.
func TestReadFullGrowingCapped(t *testing.T) {
	lim := DecodeLimits{MaxModelBytes: 1 << 10}
	hostile := []int{-1, 1<<10 + 1, 1 << 40}
	for _, n := range hostile {
		var err error
		delta := allocDelta(func() {
			_, err = readFullGrowing(bytes.NewReader(nil), nil, n, lim)
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

	// Zero-value limits fall back to the defaults, and an in-cap read
	// still delivers exactly n bytes.
	payload := bytes.Repeat([]byte{0xab}, 3000)
	got, err := readFullGrowing(bytes.NewReader(payload), nil, len(payload), DecodeLimits{})
	if err != nil {
		t.Fatalf("in-cap read failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read %d bytes, want %d identical bytes", len(got), len(payload))
	}
	// Truncated input surfaces the read error, not a silent short buffer.
	if _, err := readFullGrowing(bytes.NewReader(payload[:10]), nil, 3000, lim); err == nil {
		t.Error("truncated stream did not error")
	}
}

// TestDecodeLimitedTightens verifies explicit limits override the
// defaults: a stream the default limits accept fails a tightened cap,
// and zero-valued fields keep their defaults.
func TestDecodeLimitedTightens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := testTable(rng, 200)
	mats, models := buildPlan(t, tb, 10)
	var buf bytes.Buffer
	if _, err := encode(&buf, tb, mats, models); err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeLimited(bytes.NewReader(buf.Bytes()), DecodeLimits{}); err != nil {
		t.Fatalf("zero-value limits rejected a valid stream: %v", err)
	}
	if _, err := DecodeLimited(bytes.NewReader(buf.Bytes()), DecodeLimits{MaxRows: 100}); err == nil {
		t.Error("MaxRows=100 accepted a 200-row stream")
	}
	if _, err := DecodeLimited(bytes.NewReader(buf.Bytes()), DecodeLimits{MaxCols: 1}); err == nil {
		t.Error("MaxCols=1 accepted a multi-column stream")
	}
}
