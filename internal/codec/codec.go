// Package codec defines the wire format of a SPARTAN-compressed table
// T_c = <T', {M₁…Mₚ}> (paper §2.2): a schema header, the list of
// materialized attributes, the serialized CaRT models with their outlier
// lists, and the deflated projection T' of the (quantized) table onto the
// materialized attributes.
//
// Decoding reverses the pipeline: T' columns are restored verbatim and the
// predicted columns are recomputed by running each model over T' and
// patching its outliers — which is possible in a single pass because
// SPARTAN never lets a predicted attribute act as a predictor.
package codec

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cart"
	"repro/internal/table"
)

const magic = "SPRTN1\n"

// Breakdown reports where the compressed bytes went; the paper quotes
// these fractions (e.g. "CaRTs + outliers consume 6.25% of the
// uncompressed table").
type Breakdown struct {
	HeaderBytes int // magic, schema, dictionaries, attribute lists
	ModelBytes  int // serialized CaRTs including outliers
	TPrimeBytes int // deflated materialized projection
}

// Total returns the full compressed size in bytes.
func (b Breakdown) Total() int { return b.HeaderBytes + b.ModelBytes + b.TPrimeBytes }

// Encode writes the compressed stream. src must be the full-width table
// whose materialized columns carry the final (e.g. fascicle-quantized)
// values; predicted columns of src are ignored (the models replace them).
// models must have distinct targets, all outside materialized, and their
// predictors inside it.
func Encode(w io.Writer, src *table.Table, materialized []int, models []*cart.Model) (Breakdown, error) {
	var bd Breakdown
	if err := validatePlan(src, materialized, models); err != nil {
		return bd, err
	}

	var header bytes.Buffer
	hw := bufio.NewWriter(&header)
	_, _ = header.WriteString(magic) // bytes.Buffer writes cannot fail
	if err := writeSchema(hw, src); err != nil {
		return bd, err
	}
	if err := putUvarint(hw, uint64(src.NumRows())); err != nil {
		return bd, err
	}
	if err := putUvarint(hw, uint64(len(materialized))); err != nil {
		return bd, err
	}
	sorted := append([]int(nil), materialized...)
	sort.Ints(sorted)
	for _, a := range sorted {
		if err := putUvarint(hw, uint64(a)); err != nil {
			return bd, err
		}
	}
	if err := hw.Flush(); err != nil {
		return bd, err
	}
	bd.HeaderBytes = header.Len()

	var modelBuf bytes.Buffer
	mw := bufio.NewWriter(&modelBuf)
	if err := putUvarint(mw, uint64(len(models))); err != nil {
		return bd, err
	}
	if err := mw.Flush(); err != nil {
		return bd, err
	}
	ms := append([]*cart.Model(nil), models...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Target < ms[j].Target })
	for _, m := range ms {
		if err := m.Encode(&modelBuf); err != nil {
			return bd, err
		}
	}
	// The models section is length-prefixed and CRC-protected: the T'
	// block inherits gzip's checksum, models need their own.
	var modelHdr bytes.Buffer
	hw2 := bufio.NewWriter(&modelHdr)
	if err := putUvarint(hw2, uint64(modelBuf.Len())); err != nil {
		return bd, err
	}
	if err := hw2.Flush(); err != nil {
		return bd, err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(modelBuf.Bytes()))
	_, _ = modelHdr.Write(crcBuf[:]) // bytes.Buffer writes cannot fail
	bd.ModelBytes = modelHdr.Len() + modelBuf.Len()

	var tprime bytes.Buffer
	zw, err := gzip.NewWriterLevel(&tprime, gzip.BestCompression)
	if err != nil {
		return bd, err
	}
	zbw := bufio.NewWriter(zw)
	for _, a := range sorted {
		if err := writeColumn(zbw, src.Col(a)); err != nil {
			return bd, err
		}
	}
	if err := zbw.Flush(); err != nil {
		return bd, err
	}
	if err := zw.Close(); err != nil {
		return bd, err
	}
	bd.TPrimeBytes = tprime.Len() + uvarintLen(uint64(tprime.Len()))

	for _, chunk := range [][]byte{header.Bytes(), modelHdr.Bytes(), modelBuf.Bytes()} {
		if _, err := w.Write(chunk); err != nil {
			return bd, err
		}
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(tprime.Len()))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return bd, err
	}
	if _, err := w.Write(tprime.Bytes()); err != nil {
		return bd, err
	}
	return bd, nil
}

func validatePlan(src *table.Table, materialized []int, models []*cart.Model) error {
	isMat := make(map[int]bool, len(materialized))
	for _, a := range materialized {
		if a < 0 || a >= src.NumCols() {
			return fmt.Errorf("codec: materialized attribute %d out of range", a)
		}
		if isMat[a] {
			return fmt.Errorf("codec: duplicate materialized attribute %d", a)
		}
		isMat[a] = true
	}
	targets := make(map[int]bool, len(models))
	for _, m := range models {
		if m.Target < 0 || m.Target >= src.NumCols() {
			return fmt.Errorf("codec: model target %d out of range", m.Target)
		}
		if isMat[m.Target] {
			return fmt.Errorf("codec: attribute %d both materialized and predicted", m.Target)
		}
		if targets[m.Target] {
			return fmt.Errorf("codec: duplicate model for attribute %d", m.Target)
		}
		targets[m.Target] = true
		for _, p := range m.UsedPredictors() {
			if !isMat[p] {
				return fmt.Errorf("codec: model for %d uses non-materialized predictor %d", m.Target, p)
			}
		}
	}
	if len(materialized)+len(models) != src.NumCols() {
		return fmt.Errorf("codec: %d materialized + %d predicted != %d attributes",
			len(materialized), len(models), src.NumCols())
	}
	return nil
}

// DecodeLimits caps the resources a hostile or corrupt stream can claim
// before its payload backs the claim up. The zero value of every field
// selects a generous default, so limits are always on: Decode applies
// them as-is and DecodeLimited lets callers tighten (or, by setting huge
// values, effectively loosen) individual caps.
type DecodeLimits struct {
	// MaxRows bounds the header's row count (default 1<<34).
	MaxRows uint64
	// MaxCols bounds the schema's column count (default 1<<16).
	MaxCols uint64
	// MaxDictEntries bounds each categorical dictionary (default 1<<24).
	MaxDictEntries uint64
	// MaxModelBytes bounds the serialized models section (default 1<<31).
	MaxModelBytes uint64
	// MaxUnverifiedRows bounds the row count of a stream with no
	// materialized columns, where no payload ever substantiates the
	// claimed count (default 1<<26).
	MaxUnverifiedRows uint64
}

// WithDefaults returns the limits with zero fields replaced by their
// documented defaults, for callers outside the codec (e.g. the archive
// footer parser) that bound their own allocations by the same caps.
func (l DecodeLimits) WithDefaults() DecodeLimits { return l.withDefaults() }

func (l DecodeLimits) withDefaults() DecodeLimits {
	if l.MaxRows == 0 {
		l.MaxRows = 1 << 34
	}
	if l.MaxCols == 0 {
		l.MaxCols = 1 << 16
	}
	if l.MaxDictEntries == 0 {
		l.MaxDictEntries = 1 << 24
	}
	if l.MaxModelBytes == 0 {
		l.MaxModelBytes = 1 << 31
	}
	if l.MaxUnverifiedRows == 0 {
		l.MaxUnverifiedRows = 1 << 26
	}
	return l
}

// maxDeflateRatio is the largest expansion stored deflate data can
// achieve (one literal per bit plus framing, ≈1032:1). The T' block's
// compressed length therefore bounds how many decompressed bytes — and
// hence rows — the stream can actually deliver, letting Decode reject
// inflated header row counts before allocating for them.
const maxDeflateRatio = 1032

// Decode reads a compressed stream and reconstructs the full table,
// applying the default DecodeLimits.
func Decode(r io.Reader) (*table.Table, error) {
	return DecodeLimited(r, DecodeLimits{})
}

// DecodeLimited is Decode with explicit resource limits; zero fields of
// lim keep their defaults. Streams whose headers claim more than the
// limits allow — or more rows than their T' payload could possibly
// deliver — fail early with a descriptive error instead of allocating.
func DecodeLimited(r io.Reader, lim DecodeLimits) (*table.Table, error) {
	return decode(bufio.NewReader(r), lim)
}

// DecodeCounted is DecodeLimited that additionally reports how many
// bytes of r the stream logically occupied — read-ahead the decoder
// buffered but never interpreted is excluded. Framed containers use the
// count to verify a stream fills its declared length exactly: a shorter
// stream means the frame carries trailing bytes that would desync every
// later frame.
func DecodeCounted(r io.Reader, lim DecodeLimits) (*table.Table, int64, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	t, err := decode(br, lim)
	return t, cr.n - int64(br.Buffered()), err
}

// countingReader counts the bytes drawn from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func decode(br *bufio.Reader, lim DecodeLimits) (*table.Table, error) {
	lim = lim.withDefaults()
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("codec: bad magic %q", got)
	}
	schema, dicts, err := readSchemaLimited(br, lim)
	if err != nil {
		return nil, err
	}
	ncols := len(schema)
	nrowsU, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("codec: reading row count: %w", err)
	}
	if nrowsU > lim.MaxRows {
		return nil, fmt.Errorf("codec: row count %d exceeds limit %d", nrowsU, lim.MaxRows)
	}
	nrows := int(nrowsU)
	nmat, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("codec: reading materialized count: %w", err)
	}
	if nmat > uint64(ncols) {
		return nil, fmt.Errorf("codec: %d materialized attributes for %d columns", nmat, ncols)
	}
	matIdx := make([]int, nmat)
	isMat := make([]bool, ncols)
	for i := range matIdx {
		a, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("codec: reading materialized attribute: %w", err)
		}
		if a >= uint64(ncols) || isMat[a] {
			return nil, fmt.Errorf("codec: bad materialized attribute %d", a)
		}
		matIdx[i] = int(a)
		isMat[a] = true
	}
	// Models section: length-prefixed, CRC32-protected.
	modelsLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("codec: reading models length: %w", err)
	}
	if modelsLen > lim.MaxModelBytes {
		return nil, fmt.Errorf("codec: models length %d exceeds limit %d", modelsLen, lim.MaxModelBytes)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("codec: reading models checksum: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	modelBytes := make([]byte, 0, min(int(modelsLen), 1<<20))
	modelBytes, err = readFullGrowing(br, modelBytes, int(modelsLen), lim)
	if err != nil {
		return nil, fmt.Errorf("codec: reading models: %w", err)
	}
	if got := crc32.ChecksumIEEE(modelBytes); got != wantCRC {
		return nil, fmt.Errorf("codec: models checksum mismatch (%08x != %08x)", got, wantCRC)
	}
	mbr := bufio.NewReader(bytes.NewReader(modelBytes))
	nmodels, err := binary.ReadUvarint(mbr)
	if err != nil {
		return nil, fmt.Errorf("codec: reading model count: %w", err)
	}
	if nmodels != uint64(ncols)-nmat {
		return nil, fmt.Errorf("codec: %d models for %d predicted attributes", nmodels, uint64(ncols)-nmat)
	}
	dictSizes := make([]int, ncols)
	for i, d := range dicts {
		dictSizes[i] = len(d)
	}
	models := make([]*cart.Model, nmodels)
	for i := range models {
		m, err := cart.DecodeModel(mbr)
		if err != nil {
			return nil, fmt.Errorf("codec: decoding model %d: %w", i, err)
		}
		if m.Target >= ncols || isMat[m.Target] {
			return nil, fmt.Errorf("codec: model %d has invalid target %d", i, m.Target)
		}
		if err := m.ValidateStructure(schema, dictSizes, func(a int) bool { return isMat[a] }); err != nil {
			return nil, fmt.Errorf("codec: model %d: %w", i, err)
		}
		for _, o := range m.Outliers {
			// The lower bound matters as much as the upper one: a wrapped
			// delta in the model stream would yield a negative row, which
			// indexes the column slice from the wrong end in Reconstruct.
			if o.Row < 0 || o.Row >= nrows {
				return nil, fmt.Errorf("codec: outlier row %d beyond %d rows", o.Row, nrows)
			}
		}
		models[i] = m
	}

	// T' block. Before trusting the header's row count, cross-check it
	// against what the compressed payload could possibly contain: every
	// materialized column costs at least one decompressed byte per row,
	// and deflate expands at most maxDeflateRatio:1, so a claimed count
	// beyond tpLen·ratio/nmat rows cannot be backed by data. This rejects
	// inflated headers before any row-sized work begins.
	tpLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("codec: reading T' length: %w", err)
	}
	if tpLen > math.MaxInt64 {
		return nil, fmt.Errorf("codec: implausible T' length %d", tpLen)
	}
	if nmat > 0 {
		maxRows := uint64(math.MaxUint64)
		if tpLen < math.MaxUint64/maxDeflateRatio {
			maxRows = tpLen * maxDeflateRatio / nmat
		}
		if uint64(nrows) > maxRows {
			return nil, fmt.Errorf("codec: %d rows cannot fit in a %d-byte T' block", nrows, tpLen)
		}
	} else if uint64(nrows) > lim.MaxUnverifiedRows {
		// With no materialized columns the claimed row count is never
		// substantiated by payload, so cap it outright.
		return nil, fmt.Errorf("codec: %d rows with no materialized columns exceeds limit %d", nrows, lim.MaxUnverifiedRows)
	}
	zr, err := gzip.NewReader(io.LimitReader(br, int64(tpLen)))
	if err != nil {
		return nil, fmt.Errorf("codec: opening T' stream: %w", err)
	}
	defer zr.Close()
	zbr := bufio.NewReader(zr)

	cols := make([]*table.Column, ncols)
	for a := 0; a < ncols; a++ {
		cols[a] = &table.Column{Kind: schema[a].Kind, Dict: dicts[a]}
	}
	for _, a := range matIdx {
		if err := readColumn(zbr, cols[a], nrows); err != nil {
			return nil, fmt.Errorf("codec: reading column %d: %w", a, err)
		}
	}
	// The T' block must end exactly where its columns do. Reading one more
	// byte forces gzip through its trailer (the columns alone can be
	// satisfied from buffered output), so the full declared tpLen is
	// consumed from the stream; any residue means the declared length and
	// the payload disagree — a corrupt or hostile frame that would
	// otherwise silently desync callers framing streams back to back.
	if _, err := zbr.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("codec: trailing data in T' block")
		}
		return nil, fmt.Errorf("codec: draining T' block: %w", err)
	}

	// Routing table: placeholder predicted columns so PredictRow can walk
	// split attributes (which are all materialized). The row count was
	// cross-checked against the T' payload above, and the placeholders
	// grow in bounded chunks rather than one header-sized allocation, so
	// a lying stream fails cheaply instead of reserving gigabytes.
	for a := 0; a < ncols; a++ {
		if isMat[a] {
			continue
		}
		if schema[a].Kind == table.Numeric {
			cols[a].Floats = zeroFloats(nrows)
			continue
		}
		if nrows > 0 && len(dicts[a]) == 0 {
			return nil, fmt.Errorf("codec: predicted categorical attribute %d has empty dictionary", a)
		}
		cols[a].Codes = zeroCodes(nrows)
	}
	routing, err := table.New(schema, cols)
	if err != nil {
		return nil, fmt.Errorf("codec: assembling T': %w", err)
	}
	// Predicted columns are mutually independent (predictors are always
	// materialized), so models reconstruct in parallel. ValidateStructure
	// above already guarantees every produced code fits its dictionary.
	// The semaphore caps live goroutines at GOMAXPROCS: a hostile or
	// merely wide archive can carry thousands of models, and each
	// Reconstruct holds a full column of intermediate values.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, m := range models {
		wg.Add(1)
		sem <- struct{}{}
		go func(m *cart.Model) {
			defer wg.Done()
			defer func() { <-sem }()
			rec := m.Reconstruct(routing, dicts[m.Target])
			if rec.Kind == table.Numeric {
				copy(cols[m.Target].Floats, rec.Floats)
			} else {
				copy(cols[m.Target].Codes, rec.Codes)
			}
		}(m)
	}
	wg.Wait()
	return table.New(schema, cols)
}

// EstimateBitsPerValue encodes a column exactly as the T' block would
// (dictionary or raw cells, then deflate) and returns the achieved bits
// per value. SPARTAN uses this on sample columns to price materialization
// honestly during CaRT selection. The fixed gzip stream overhead is
// excluded and the result is floored at 0.25 bits.
func EstimateBitsPerValue(c *table.Column) (float64, error) {
	n := c.Len()
	if n == 0 {
		return 0, nil
	}
	var body bytes.Buffer
	zw, err := gzip.NewWriterLevel(&body, gzip.BestSpeed)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(zw)
	if err := writeColumn(bw, c); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	payload := body.Len() - 24
	if payload < 1 {
		payload = 1
	}
	bits := float64(payload*8) / float64(n)
	if bits < 0.25 {
		bits = 0.25
	}
	return bits, nil
}

// Numeric column encodings inside the T' block. Fascicle quantization
// leaves materialized columns with few distinct values, so a value
// dictionary plus per-row indexes usually beats raw 4-byte cells (and the
// surrounding gzip crushes the index stream further).
const (
	numEncRaw  byte = 0 // nrows × float32
	numEncDict byte = 1 // dict size, dict of float32, nrows × uvarint index
)

// dictLimit caps the dictionary encoding: beyond this many distinct
// values, raw float32 cells are at least as compact.
const dictLimit = 1 << 16

func writeColumn(bw *bufio.Writer, c *table.Column) error {
	if c.Kind == table.Numeric {
		return writeNumericColumn(bw, c.Floats)
	}
	for _, code := range c.Codes {
		if err := putUvarint(bw, uint64(code)); err != nil {
			return err
		}
	}
	return nil
}

func writeNumericColumn(bw *bufio.Writer, vals []float64) error {
	index := make(map[float64]int, 256)
	for _, v := range vals {
		if _, ok := index[v]; !ok {
			if len(index) >= dictLimit {
				index = nil
				break
			}
			index[v] = 0
		}
	}
	if index == nil {
		if err := bw.WriteByte(numEncRaw); err != nil {
			return err
		}
		var buf [4]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(v)))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	}
	// Deterministic dictionary: ascending value order.
	dict := make([]float64, 0, len(index))
	for v := range index {
		dict = append(dict, v)
	}
	sort.Float64s(dict)
	for i, v := range dict {
		index[v] = i
	}
	if err := bw.WriteByte(numEncDict); err != nil {
		return err
	}
	if err := putUvarint(bw, uint64(len(dict))); err != nil {
		return err
	}
	var buf [4]byte
	for _, v := range dict {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(v)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, v := range vals {
		if err := putUvarint(bw, uint64(index[v])); err != nil {
			return err
		}
	}
	return nil
}

func readColumn(br *bufio.Reader, c *table.Column, nrows int) error {
	if c.Kind == table.Numeric {
		floats, err := readNumericColumn(br, nrows)
		if err != nil {
			return err
		}
		c.Floats = floats
		return nil
	}
	codes := make([]int32, 0, min(nrows, 1<<16))
	for r := 0; r < nrows; r++ {
		code, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if code >= uint64(len(c.Dict)) {
			return fmt.Errorf("code %d outside dictionary of %d", code, len(c.Dict))
		}
		codes = append(codes, int32(code))
	}
	c.Codes = codes
	return nil
}

func readNumericColumn(br *bufio.Reader, nrows int) ([]float64, error) {
	enc, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, min(nrows, 1<<16))
	var buf [4]byte
	switch enc {
	case numEncRaw:
		for r := 0; r < nrows; r++ {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			out = append(out, float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))))
		}
	case numEncDict:
		dlen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if dlen > dictLimit {
			return nil, fmt.Errorf("numeric dictionary size %d exceeds limit", dlen)
		}
		dict := make([]float64, dlen)
		for i := range dict {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			dict[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[:])))
		}
		for r := 0; r < nrows; r++ {
			ix, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if ix >= dlen {
				return nil, fmt.Errorf("numeric dictionary index %d out of range %d", ix, dlen)
			}
			out = append(out, dict[ix])
		}
	default:
		return nil, fmt.Errorf("unknown numeric column encoding %d", enc)
	}
	return out, nil
}

// zeroFloats and zeroCodes allocate placeholder column storage in
// bounded chunks instead of one header-sized request, matching the
// incremental-growth policy used everywhere else header varints drive
// allocation.
func zeroFloats(n int) []float64 {
	out := make([]float64, 0, min(n, 1<<16))
	for len(out) < n {
		out = append(out, make([]float64, min(n-len(out), 1<<16))...)
	}
	return out
}

func zeroCodes(n int) []int32 {
	out := make([]int32, 0, min(n, 1<<16))
	for len(out) < n {
		out = append(out, make([]int32, min(n-len(out), 1<<16))...)
	}
	return out
}

// readFullGrowing reads exactly n bytes, growing dst incrementally so a
// lying length cannot force a huge upfront allocation. The total is
// re-checked against lim.MaxModelBytes here rather than trusting the
// caller's guard: the function is the allocation sink, so the bound
// that protects it must travel with the call.
func readFullGrowing(r io.Reader, dst []byte, n int, lim DecodeLimits) ([]byte, error) {
	lim = lim.withDefaults()
	if n < 0 || uint64(n) > lim.MaxModelBytes {
		return nil, fmt.Errorf("codec: read length %d exceeds limit %d", n, lim.MaxModelBytes)
	}
	const chunk = 1 << 20
	for len(dst) < n {
		want := n - len(dst)
		if want > chunk {
			want = chunk
		}
		start := len(dst)
		dst = append(dst, make([]byte, want)...)
		if _, err := io.ReadFull(r, dst[start:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// --- schema helpers (same layout as the raw table format) ---

func writeSchema(bw *bufio.Writer, t *table.Table) error {
	if err := putUvarint(bw, uint64(t.NumCols())); err != nil {
		return err
	}
	for i := 0; i < t.NumCols(); i++ {
		a := t.Attr(i)
		if err := putString(bw, a.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(a.Kind)); err != nil {
			return err
		}
		if a.Kind == table.Categorical {
			dict := t.Col(i).Dict
			if err := putUvarint(bw, uint64(len(dict))); err != nil {
				return err
			}
			for _, s := range dict {
				if err := putString(bw, s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func readSchemaLimited(br *bufio.Reader, lim DecodeLimits) (table.Schema, [][]string, error) {
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: reading column count: %w", err)
	}
	if ncols == 0 || ncols > lim.MaxCols {
		return nil, nil, fmt.Errorf("codec: column count %d outside limit %d", ncols, lim.MaxCols)
	}
	schema := make(table.Schema, ncols)
	dicts := make([][]string, ncols)
	for i := range schema {
		name, err := getString(br)
		if err != nil {
			return nil, nil, err
		}
		kb, err := br.ReadByte()
		if err != nil {
			return nil, nil, err
		}
		kind := table.Kind(kb)
		if kind != table.Numeric && kind != table.Categorical {
			return nil, nil, fmt.Errorf("codec: unknown kind %d", kb)
		}
		schema[i] = table.Attribute{Name: name, Kind: kind}
		if kind == table.Categorical {
			dlen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, err
			}
			if dlen > lim.MaxDictEntries {
				return nil, nil, fmt.Errorf("codec: dictionary size %d exceeds limit %d", dlen, lim.MaxDictEntries)
			}
			// Grow incrementally so a lying header cannot force a huge
			// allocation before the stream runs out.
			dict := make([]string, 0, min(int(dlen), 1<<12))
			for d := uint64(0); d < dlen; d++ {
				s, err := getString(br)
				if err != nil {
					return nil, nil, err
				}
				dict = append(dict, s)
			}
			dicts[i] = dict
		}
	}
	return schema, dicts, nil
}

func putUvarint(bw *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := bw.Write(buf[:n])
	return err
}

func putString(bw *bufio.Writer, s string) error {
	if err := putUvarint(bw, uint64(len(s))); err != nil {
		return err
	}
	_, err := bw.WriteString(s)
	return err
}

func getString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("codec: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
