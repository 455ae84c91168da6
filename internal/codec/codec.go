// Package codec defines the wire format of a SPARTAN-compressed table
// T_c = <T', {M₁…Mₚ}> (paper §2.2) in two parts. The model block holds
// what learning produced: the schema with its categorical dictionaries,
// the tolerance vector ē the bodies reconstruct within, the list of
// materialized attributes and the CaRT trees. A body holds
// what one set of rows adds: the row count, each model's outliers and the
// projection T' onto the materialized attributes, one deflated frame per
// column. Both travel in
// one container (container.go): one model block shared by one or more
// segment bodies, and a footer of per-segment zone maps. The package is
// the only one that knows the container's layout; Writer writes it and
// Reader, the one reader, decodes it.
//
// Decoding reverses the pipeline: T' columns are restored verbatim and the
// predicted columns are recomputed by running each model over T' and
// patching its outliers — which is possible in a single pass because
// SPARTAN never lets a predicted attribute act as a predictor.
package codec

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/cart"
	"repro/internal/par"
	"repro/internal/table"
)

// Breakdown reports where the compressed bytes went; the paper quotes
// these fractions (e.g. "CaRTs + outliers consume 6.25% of the
// uncompressed table").
type Breakdown struct {
	HeaderBytes int // length and checksum framing, schema, dictionaries, recorded tolerances, attribute lists, row count
	ModelBytes  int // serialized CaRT trees and outliers
	TPrimeBytes int // materialized projection: frame index and deflated frames
}

// Total returns the full compressed size in bytes.
func (b Breakdown) Total() int { return b.HeaderBytes + b.ModelBytes + b.TPrimeBytes }

// ModelBlock is the learned half of a compressed table, shared by every
// body encoded against it.
type ModelBlock struct {
	Schema table.Schema
	// Dicts holds each categorical attribute's dictionary (nil for
	// numeric attributes). Every body's categorical codes index these.
	Dicts [][]string
	// Tolerances records, per attribute, the bound every body of the
	// block reconstructs within: for a numeric attribute the absolute
	// error, for a categorical one the largest fraction of rows that may
	// decode to a different value (table.Tolerance.Bound). Only Value is
	// set. Queries over the block's bodies take their intervals from it.
	Tolerances table.Tolerances
	// Materialized lists the materialized attributes in ascending order.
	Materialized []int
	// Models holds one CaRT per predicted attribute, in ascending target
	// order. A body's outliers are its own, listed in the same order, so
	// every body of the block reads these trees and none writes them.
	Models []*cart.Model
}

// NewModelBlock checks a compression plan against src and returns its
// model block: src's schema and dictionaries, all-zero (lossless)
// tolerances, the materialized attributes and models, sorted by target
// and shared, not copied. models must have distinct targets, all outside
// materialized, and their predictors inside it.
func NewModelBlock(src *table.Table, materialized []int, models []*cart.Model) (*ModelBlock, error) {
	if err := validatePlan(src, materialized, models); err != nil {
		return nil, err
	}
	mb := &ModelBlock{
		Schema:       src.Schema().Clone(),
		Dicts:        src.Dicts(),
		Tolerances:   table.ZeroTolerances(src),
		Materialized: slices.Clone(materialized),
		Models:       slices.Clone(models),
	}
	sort.Ints(mb.Materialized)
	slices.SortFunc(mb.Models, func(a, b *cart.Model) int { return a.Target - b.Target })
	return mb, nil
}

// Encode writes the model block: the byte length and CRC-32 of its
// payload, then the payload (schema with dictionaries, recorded
// tolerances, materialized attributes, model count and trees). It
// refuses a tolerance the decoder would refuse.
func (mb *ModelBlock) Encode(w io.Writer) (Breakdown, error) {
	var bd Breakdown
	if len(mb.Tolerances) != len(mb.Schema) {
		return bd, fmt.Errorf("codec: %d tolerances for %d attributes", len(mb.Tolerances), len(mb.Schema))
	}
	var payload bytes.Buffer
	pw := bufio.NewWriter(&payload)
	if err := table.WriteSchema(pw, mb.Schema, mb.Dicts); err != nil {
		return bd, err
	}
	for i, e := range mb.Tolerances {
		if err := checkTolerance(mb.Schema, i, e.Value); err != nil {
			return bd, err
		}
		if _, err := pw.Write(binary.LittleEndian.AppendUint64(pw.AvailableBuffer(), math.Float64bits(e.Value))); err != nil {
			return bd, err
		}
	}
	if err := putUvarint(pw, uint64(len(mb.Materialized))); err != nil {
		return bd, err
	}
	for _, a := range mb.Materialized {
		if err := putUvarint(pw, uint64(a)); err != nil {
			return bd, err
		}
	}
	if err := pw.Flush(); err != nil {
		return bd, err
	}
	header := payload.Len()
	_, _ = payload.Write(binary.AppendUvarint(nil, uint64(len(mb.Models)))) // bytes.Buffer writes cannot fail
	for _, m := range mb.Models {
		if err := m.Encode(&payload); err != nil {
			return bd, err
		}
	}
	n, err := writeChecked(w, payload.Bytes())
	if err != nil {
		return bd, err
	}
	bd.HeaderBytes = n - payload.Len() + header
	bd.ModelBytes = payload.Len() - header
	return bd, nil
}

// EncodeBody writes one body: src's row count, the outliers (outliers[i]
// belongs to mb.Models[i]) and T'. src must have mb's schema, its
// categorical codes must index the dictionaries the body is decoded
// with, and its materialized columns carry the final (e.g.
// fascicle-quantized) values; its predicted columns are ignored (the
// models replace them).
func (mb *ModelBlock) EncodeBody(w io.Writer, src *table.Table, outliers [][]cart.Outlier) (Breakdown, error) {
	var bd Breakdown
	if src.NumCols() != len(mb.Schema) {
		return bd, fmt.Errorf("codec: body has %d attributes, model block %d", src.NumCols(), len(mb.Schema))
	}
	if len(outliers) != len(mb.Models) {
		return bd, fmt.Errorf("codec: %d outlier lists for %d models", len(outliers), len(mb.Models))
	}
	rows := binary.AppendUvarint(nil, uint64(src.NumRows()))
	var outBuf bytes.Buffer
	for i, m := range mb.Models {
		if err := cart.EncodeOutliers(&outBuf, m.TargetKind, outliers[i]); err != nil {
			return bd, err
		}
	}

	// T': the frame index, then one raw-deflate frame per materialized
	// column, in the order of mb.Materialized.
	d := getDeflater(bestCompression)
	defer putDeflater(bestCompression, d)
	var index []byte
	for _, a := range mb.Materialized {
		start := d.frames.Len()
		raw, err := d.frame(src.Col(a))
		if err != nil {
			return bd, err
		}
		f := d.frames.Bytes()[start:]
		index = binary.AppendUvarint(index, uint64(len(f)))
		index = binary.AppendUvarint(index, uint64(raw))
		index = binary.LittleEndian.AppendUint32(index, crc32.ChecksumIEEE(f))
	}

	if _, err := w.Write(rows); err != nil {
		return bd, err
	}
	bd.HeaderBytes = len(rows)
	var err error
	if bd.ModelBytes, err = writeChecked(w, outBuf.Bytes()); err != nil {
		return bd, err
	}
	tpLen := binary.AppendUvarint(nil, uint64(len(index)+d.frames.Len()))
	for _, b := range [][]byte{tpLen, index, d.frames.Bytes()} {
		if _, err := w.Write(b); err != nil {
			return bd, err
		}
	}
	bd.TPrimeBytes = len(tpLen) + len(index) + d.frames.Len()
	return bd, nil
}

// writeChecked writes a length-prefixed, CRC-32-protected section and
// returns the bytes written.
func writeChecked(w io.Writer, payload []byte) (int, error) {
	head := binary.AppendUvarint(nil, uint64(len(payload)))
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(head); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return len(head) + len(payload), nil
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

// DecodeLimits caps the resources a hostile or corrupt input can claim
// before its payload backs the claim up. The zero value of every field
// selects a generous default, so limits are always on: Decode applies
// them as-is and Open lets callers tighten (or, by setting huge values,
// effectively loosen) individual caps.
type DecodeLimits struct {
	// MaxRows bounds a body's row count (default 1<<34, at most
	// math.MaxInt: row counts narrow to int).
	MaxRows uint64
	// MaxCols bounds the schema's column count (default 1<<16).
	MaxCols uint64
	// MaxDictEntries bounds each categorical dictionary (default 1<<24).
	MaxDictEntries uint64
	// MaxModelBytes bounds the model block and each body's outlier
	// section (default 1<<31).
	MaxModelBytes uint64
	// MaxUnverifiedRows bounds the row count of a body with no
	// materialized columns, where no payload ever substantiates the
	// claimed count (default 1<<26).
	MaxUnverifiedRows uint64
}

func (l DecodeLimits) withDefaults() DecodeLimits {
	if l.MaxRows == 0 {
		l.MaxRows = 1 << 34
	}
	l.MaxRows = min(l.MaxRows, math.MaxInt)
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

// ErrExceedsLimits is returned, wrapped, for a table whose archive the
// default DecodeLimits would refuse: more than MaxCols attributes, or a
// categorical dictionary over MaxDictEntries. Writers refuse such a
// table before learning anything; test for it with errors.Is.
var ErrExceedsLimits = errors.New("codec: table exceeds the default decode limits")

// CheckTable returns ErrExceedsLimits, wrapped, if the default reader
// would refuse an archive of t.
func CheckTable(t *table.Table) error {
	if n, max := uint64(t.NumCols()), (DecodeLimits{}).withDefaults().MaxCols; n > max {
		return fmt.Errorf("%w: %d attributes, at most %d", ErrExceedsLimits, n, max)
	}
	for c := range t.NumCols() {
		if err := CheckDict(t.Attr(c).Name, len(t.Col(c).Dict)); err != nil {
			return err
		}
	}
	return nil
}

// CheckDict returns ErrExceedsLimits, wrapped, if the default reader
// would refuse a dictionary of n entries for attribute name.
func CheckDict(name string, n int) error {
	if max := (DecodeLimits{}).withDefaults().MaxDictEntries; uint64(n) > max {
		return fmt.Errorf("%w: attribute %q has %d dictionary entries, at most %d", ErrExceedsLimits, name, n, max)
	}
	return nil
}

// maxDeflateRatio is the largest expansion stored deflate data can
// achieve (one literal per bit plus framing, ≈1032:1). A frame's length
// therefore bounds how many inflated bytes it can deliver, and the T'
// block's length how many rows a body can, letting the decoder reject
// inflated claims before allocating for them.
const maxDeflateRatio = 1032

// DecodeModelBlock decodes a model block written by ModelBlock.Encode,
// which must fill data exactly. Its trees are structurally validated
// against the schema, dictionaries and materialized attributes, so they
// are safe to run over any body that decodes against the block.
func DecodeModelBlock(data []byte, lim DecodeLimits) (*ModelBlock, error) {
	br := bytes.NewReader(data)
	mb, err := readModelBlock(br, lim.withDefaults())
	if err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("codec: %d bytes after the model block", br.Len())
	}
	return mb, nil
}

// DecodeBody decodes one body written by EncodeBody against mb from the
// front of frame and reports how many bytes of frame the body occupies.
// The container reader passes a segment's whole frame and uses the count
// to verify the body fills it exactly: a shorter body means the frame
// carries trailing bytes no decoder reads. Bodies that claim more than
// lim allows — or more rows than their T' payload could possibly deliver
// — fail early with a descriptive error instead of allocating.
//
// cols projects the table: a nil cols decodes every attribute, and
// otherwise the table holds the attributes cols marks, in schema order.
// cols has one flag per schema attribute and marks the predictors of
// every predicted attribute it marks, as Reader.Columns's sets do. An
// attribute left out is checked as far as it is stored without being
// read: a materialized one's frame-index entry and frame CRC-32 are
// checked but the frame is not inflated, and a predicted one's outliers
// are decoded but its CaRT is not run. A projected decode therefore
// refuses what a full one refuses, except bad cells inside a frame whose
// CRC-32 holds and which it does not read.
func (mb *ModelBlock) DecodeBody(frame []byte, lim DecodeLimits, cols []bool) (*table.Table, int, error) {
	t, rest, err := mb.readBody(frame, lim.withDefaults(), cols)
	return t, len(frame) - len(rest), err
}

// Project returns the elements of xs whose flags in cols are set, in
// order; a nil cols keeps every element. It lays out a projected
// decode's schema and the tolerances a query over it runs under.
func Project[S ~[]E, E any](xs S, cols []bool) S {
	if cols == nil {
		return xs
	}
	out := make(S, 0, len(xs))
	for i, x := range xs {
		if cols[i] {
			out = append(out, x)
		}
	}
	return out
}

// byteReader is what the section decoders read from.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// readChecked reads a section written by writeChecked, verifying its
// CRC. The length is bounded by lim.MaxModelBytes before any allocation.
func readChecked(br byteReader, what string, lim DecodeLimits) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("codec: reading %s length: %w", what, err)
	}
	if n > lim.MaxModelBytes {
		return nil, fmt.Errorf("codec: %s length %d exceeds limit %d", what, n, lim.MaxModelBytes)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("codec: reading %s checksum: %w", what, err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	payload, err := readFullGrowing(br, nil, n, lim.MaxModelBytes)
	if err != nil {
		return nil, fmt.Errorf("codec: reading %s: %w", what, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("codec: %s checksum mismatch (%08x != %08x)", what, got, wantCRC)
	}
	return payload, nil
}

// ToleranceError reports a model block whose recorded tolerance vector
// is cut short or holds a value no writer records: a NaN, an infinity, a
// negative value, or a categorical mismatch rate above 1. Queries take
// their intervals from the vector, so the whole archive is refused.
type ToleranceError struct {
	Attr  string  // the attribute's name
	Value float64 // the recorded value; zero when the vector is cut short
	Err   error   // the read error when the vector is cut short, else nil
}

func (e *ToleranceError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("codec: reading recorded tolerance of %q: %v", e.Attr, e.Err)
	}
	return fmt.Sprintf("codec: recorded tolerance %g of %q is out of range", e.Value, e.Attr)
}

func (e *ToleranceError) Unwrap() error { return e.Err }

// checkTolerance checks the recorded tolerance v of attribute i: finite
// and non-negative, and at most 1 for a categorical attribute.
func checkTolerance(schema table.Schema, i int, v float64) error {
	if !(v >= 0) || math.IsInf(v, 0) || (schema[i].Kind == table.Categorical && v > 1) {
		return &ToleranceError{Attr: schema[i].Name, Value: v}
	}
	return nil
}

// readModelBlock reads and validates a model block. lim has its defaults.
func readModelBlock(br byteReader, lim DecodeLimits) (*ModelBlock, error) {
	payload, err := readChecked(br, "model block", lim)
	if err != nil {
		return nil, err
	}
	pr := bytes.NewReader(payload)
	schema, dicts, err := table.ReadSchema(pr, lim.MaxCols, lim.MaxDictEntries)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	ncols := len(schema)
	tols := make(table.Tolerances, ncols)
	var b [8]byte
	for i := range tols {
		if _, err := io.ReadFull(pr, b[:]); err != nil {
			return nil, &ToleranceError{Attr: schema[i].Name, Err: err}
		}
		tols[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if err := checkTolerance(schema, i, tols[i].Value); err != nil {
			return nil, err
		}
	}
	nmat, err := binary.ReadUvarint(pr)
	if err != nil {
		return nil, fmt.Errorf("codec: reading materialized count: %w", err)
	}
	if nmat > uint64(ncols) {
		return nil, fmt.Errorf("codec: %d materialized attributes for %d columns", nmat, ncols)
	}
	mb := &ModelBlock{Schema: schema, Dicts: dicts, Tolerances: tols, Materialized: make([]int, nmat)}
	isMat := make([]bool, ncols)
	for i := range mb.Materialized {
		a, err := binary.ReadUvarint(pr)
		if err != nil {
			return nil, fmt.Errorf("codec: reading materialized attribute: %w", err)
		}
		if a >= uint64(ncols) || (i > 0 && int(a) <= mb.Materialized[i-1]) {
			return nil, fmt.Errorf("codec: bad materialized attribute %d", a)
		}
		mb.Materialized[i] = int(a)
		isMat[a] = true
	}
	nmodels, err := binary.ReadUvarint(pr)
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
	mb.Models = make([]*cart.Model, nmodels)
	for i := range mb.Models {
		m, err := cart.DecodeModel(pr)
		if err != nil {
			return nil, fmt.Errorf("codec: decoding model %d: %w", i, err)
		}
		// Strictly ascending targets outside the materialized set give
		// every predicted attribute exactly one model.
		if m.Target >= ncols || isMat[m.Target] || (i > 0 && m.Target <= mb.Models[i-1].Target) {
			return nil, fmt.Errorf("codec: model %d has invalid target %d", i, m.Target)
		}
		if err := m.ValidateStructure(schema, dictSizes, func(a int) bool { return isMat[a] }); err != nil {
			return nil, fmt.Errorf("codec: model %d: %w", i, err)
		}
		mb.Models[i] = m
	}
	if pr.Len() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes in the model block", pr.Len())
	}
	return mb, nil
}

// readBody reads one body from the front of frame, reconstructs the
// attributes cols keeps (nil: all) and returns the bytes after it. lim
// has its defaults.
func (mb *ModelBlock) readBody(frame []byte, lim DecodeLimits, cols []bool) (*table.Table, []byte, error) {
	keep := func(a int) bool { return cols == nil || cols[a] }
	br := bytes.NewReader(frame)
	nrowsU, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: reading row count: %w", err)
	}
	if nrowsU > lim.MaxRows {
		return nil, nil, fmt.Errorf("codec: row count %d exceeds limit %d", nrowsU, lim.MaxRows)
	}
	nrows := int(nrowsU)

	// Outliers: one CRC-protected list per model, in model order. Each
	// row and code is checked against this body before it can be patched
	// into a column.
	outPayload, err := readChecked(br, "outliers", lim)
	if err != nil {
		return nil, nil, err
	}
	or := bytes.NewReader(outPayload)
	outliers := make([][]cart.Outlier, len(mb.Models))
	for i, m := range mb.Models {
		if outliers[i], err = cart.DecodeOutliers(or, m.TargetKind, nrows, len(mb.Dicts[m.Target])); err != nil {
			return nil, nil, fmt.Errorf("codec: model %d outliers: %w", i, err)
		}
	}
	if or.Len() != 0 {
		return nil, nil, fmt.Errorf("codec: %d trailing bytes in the outliers section", or.Len())
	}

	// T' block. Before trusting the row count, cross-check it against what
	// the T' bytes could possibly contain: every materialized column costs
	// at least one inflated byte per row, and deflate expands at most
	// maxDeflateRatio:1, so a claimed count beyond tpLen·ratio/nmat rows
	// cannot be backed by data. This rejects inflated counts before any
	// row-sized work begins.
	tpLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: reading T' length: %w", err)
	}
	rest := frame[len(frame)-br.Len():]
	if tpLen > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("codec: implausible T' length %d: %d bytes left in the body", tpLen, len(rest))
	}
	if nmat := uint64(len(mb.Materialized)); nmat > 0 {
		if uint64(nrows) > tpLen*maxDeflateRatio/nmat {
			return nil, nil, fmt.Errorf("codec: %d rows cannot fit in a %d-byte T' block", nrows, tpLen)
		}
	} else if uint64(nrows) > lim.MaxUnverifiedRows {
		// With no materialized columns the claimed row count is never
		// substantiated by payload, so cap it outright.
		return nil, nil, fmt.Errorf("codec: %d rows with no materialized columns exceeds limit %d", nrows, lim.MaxUnverifiedRows)
	}
	frames, err := readFrameIndex(rest[:tpLen], len(mb.Materialized))
	if err != nil {
		return nil, nil, err
	}
	buf := tprimeBufs.get()
	defer tprimeBufs.put(buf) // every column copies its cells out of *buf
	full := make([]*table.Column, len(mb.Schema))
	for i, a := range mb.Materialized {
		if !keep(a) {
			continue
		}
		p, err := inflate(frames[i], *buf)
		if err != nil {
			return nil, nil, fmt.Errorf("codec: inflating column %d: %w", a, err)
		}
		*buf = p
		c := &table.Column{Kind: mb.Schema[a].Kind, Dict: mb.Dicts[a]}
		if p, err = parseColumn(p, c, nrows); err != nil {
			return nil, nil, fmt.Errorf("codec: reading column %d: %w", a, err)
		}
		// A frame must end exactly where its column's cells do.
		if len(p) != 0 {
			return nil, nil, fmt.Errorf("codec: reading column %d: %d bytes after its cells", a, len(p))
		}
		full[a] = c
	}

	// Predicted columns are mutually independent (predictors are always
	// materialized), so models reconstruct in parallel, each into its own
	// column. The block's validation guarantees every produced code fits
	// its dictionary, and DecodeModel that every leaf value is finite. The
	// fan-out is bounded at GOMAXPROCS: a hostile or merely wide table can
	// carry thousands of models. A model whose target cols leaves out is
	// not run; its outliers were checked above.
	var run []int
	for i, m := range mb.Models {
		a := m.Target
		if !keep(a) {
			continue
		}
		full[a] = &table.Column{Kind: m.TargetKind, Dict: mb.Dicts[a]}
		if m.TargetKind == table.Numeric {
			full[a].Floats = make([]float64, nrows)
		} else {
			full[a].Codes = make([]int32, nrows)
		}
		run = append(run, i)
	}
	err = par.ForEach(context.Background(), len(run), 0, func(_ context.Context, k int) error {
		mb.Models[run[k]].Reconstruct(full, outliers[run[k]])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t, err := table.New(Project(mb.Schema, cols), Project(full, cols))
	return t, rest[tpLen:], err
}

// colFrame is one materialized column's entry in a body's frame index,
// with the frame it locates.
type colFrame struct {
	data []byte // the raw-deflate frame
	raw  uint64 // its inflated length
}

// readFrameIndex reads T' (tp): the index of nmat frames, each entry the
// frame's byte length, its inflated length and the CRC-32 of its bytes,
// then the frames. Every entry and every frame is checked, whether a
// decode reads the frame or not: the frames must tile the bytes after the
// index exactly, each must match its CRC-32, and no inflated length may
// exceed what deflate could expand its frame to.
func readFrameIndex(tp []byte, nmat int) ([]colFrame, error) {
	br := bytes.NewReader(tp)
	frames := make([]colFrame, nmat)
	index := make([]struct {
		len uint64
		crc [4]byte
	}, nmat)
	for i := range index {
		var err error
		if index[i].len, err = binary.ReadUvarint(br); err == nil {
			if frames[i].raw, err = binary.ReadUvarint(br); err == nil {
				_, err = io.ReadFull(br, index[i].crc[:])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("codec: reading T' frame index entry %d: %w", i, err)
		}
	}
	rest := tp[len(tp)-br.Len():]
	for i, e := range index {
		if e.len > uint64(len(rest)) {
			return nil, fmt.Errorf("codec: T' frame %d of %d bytes overruns the %d bytes left", i, e.len, len(rest))
		}
		frames[i].data, rest = rest[:e.len], rest[e.len:]
		if frames[i].raw > e.len*maxDeflateRatio {
			return nil, fmt.Errorf("codec: T' frame %d of %d bytes cannot inflate to %d bytes", i, e.len, frames[i].raw)
		}
		want := binary.LittleEndian.Uint32(e.crc[:])
		if got := crc32.ChecksumIEEE(frames[i].data); got != want {
			return nil, fmt.Errorf("codec: T' frame %d checksum mismatch (%08x != %08x)", i, got, want)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("codec: %d bytes of T' after its last frame", len(rest))
	}
	return frames, nil
}

// inflate decompresses f whole into dst's storage, growing it in
// readFullGrowing's chunks when it is too small, so an inflated length
// the index overstates costs at most one chunk past what the frame
// delivers. The stream must inflate to exactly f.raw bytes and end where
// the frame does.
func inflate(f colFrame, dst []byte) ([]byte, error) {
	in, _ := inflaters.Get().(*inflater)
	if in == nil {
		in = &inflater{zr: flate.NewReader(nil)}
	}
	defer inflaters.Put(in)
	in.src.Reset(f.data)
	defer in.src.Reset(nil) // the pooled reader must not pin the frame
	if err := in.zr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, err
	}
	p, err := readFullGrowing(in.zr, dst, f.raw, uint64(len(f.data))*maxDeflateRatio)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("stream ends before its indexed %d bytes: %w", f.raw, err)
	}
	if err != nil {
		return nil, err
	}
	var more [1]byte
	if n, err := io.ReadFull(in.zr, more[:]); n > 0 {
		return nil, fmt.Errorf("stream runs past its indexed %d bytes", f.raw)
	} else if err != io.EOF {
		return nil, err
	}
	// flate reads a byte reader no further than its stream's last byte.
	if in.src.Len() != 0 {
		return nil, fmt.Errorf("%d bytes after the deflate stream", in.src.Len())
	}
	return p, nil
}

// Reading keeps what one body's decode needs for the next, the mirror of
// the writers' pools: a flate reader with its inflate state, and one pool
// of byte buffers each for the segment frames and their inflated T'
// columns. A buffer goes back only once nothing aliases it: the body
// decoders copy every cell, outlier and section out of the bytes they
// read.
var (
	inflaters             sync.Pool // *inflater
	frameBufs, tprimeBufs bufPool
)

// inflater is a raw-deflate reader over one in-memory frame.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // flate's reader, a flate.Resetter
}

// bufPool pools byte buffers of one use, so each comes back about the
// size the next one needs.
type bufPool struct{ p sync.Pool }

// get returns a pooled buffer, empty when the pool is.
func (bp *bufPool) get() *[]byte {
	if b, ok := bp.p.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// put returns b to the pool unless it grew past one readChunk, so a huge
// segment does not stay pinned.
func (bp *bufPool) put(b *[]byte) {
	if cap(*b) <= readChunk {
		bp.p.Put(b)
	}
}

// EstimateBitsPerValue encodes a column with the T' block's cell
// encoding (dictionary or raw cells), deflates it at BestSpeed as one
// frame, and returns the achieved bits per value. SPARTAN uses this on
// sample columns to price materialization during CaRT selection. T'
// itself is deflated at BestCompression, so the price approximates, and
// usually exceeds, what the column costs in T'. Six bytes of fixed stream
// overhead are excluded, the 24 plans have always excluded from a gzip
// stream, 18 bytes longer, of the same frame; the result is floored at
// 0.25 bits.
func EstimateBitsPerValue(c *table.Column) (float64, error) {
	n := c.Len()
	if n == 0 {
		return 0, nil
	}
	d := getDeflater(bestSpeed)
	defer putDeflater(bestSpeed, d)
	if _, err := d.frame(c); err != nil {
		return 0, err
	}
	payload := d.frames.Len() - 6
	if payload < 1 {
		payload = 1
	}
	bits := float64(payload*8) / float64(n)
	if bits < 0.25 {
		bits = 0.25
	}
	return bits, nil
}

// Each deflate level keeps a pool of deflaters: a flate writer holds
// about 1 MB of compressor state, and ingest deflates every sample column
// and every segment's T'. A writer Reset onto a new frame writes the same
// bytes as a new one.
var (
	bestSpeed       = deflaterPool(flate.BestSpeed)
	bestCompression = deflaterPool(flate.BestCompression)
)

func deflaterPool(level int) *sync.Pool {
	return &sync.Pool{New: func() any {
		zw, err := flate.NewWriter(nil, level)
		if err != nil {
			panic(err) // level is one of flate's constants
		}
		d := &deflater{zw: zw}
		d.bw = bufio.NewWriter(d)
		return d
	}}
}

// deflater writes raw-deflate frames, back to back, into frames: cells go
// through bw into the flate writer zw, counted on the way.
type deflater struct {
	zw     *flate.Writer
	bw     *bufio.Writer
	frames bytes.Buffer
	raw    int // bytes written into the current frame's stream
}

// getDeflater returns a deflater from pool with no frames.
func getDeflater(pool *sync.Pool) *deflater {
	d := pool.Get().(*deflater)
	d.frames.Reset()
	return d
}

// putDeflater returns d to pool, dropping its frame buffer when it grew
// past one readChunk, so a huge segment does not stay pinned.
func putDeflater(pool *sync.Pool, d *deflater) {
	if d.frames.Cap() > readChunk {
		d.frames = bytes.Buffer{}
	}
	pool.Put(d)
}

func (d *deflater) Write(p []byte) (int, error) {
	d.raw += len(p)
	return d.zw.Write(p)
}

// frame appends c, in the T' cell encoding, to d.frames as one
// raw-deflate frame and returns its inflated length.
func (d *deflater) frame(c *table.Column) (int, error) {
	d.raw = 0
	d.zw.Reset(&d.frames)
	d.bw.Reset(d)
	if err := writeColumn(d.bw, c); err != nil {
		return 0, err
	}
	if err := d.bw.Flush(); err != nil {
		return 0, err
	}
	return d.raw, d.zw.Close()
}

// Numeric column encodings inside the T' block. Fascicle quantization
// leaves materialized columns with few distinct values, so a value
// dictionary plus per-row indexes usually beats raw 4-byte cells (and the
// column's deflate frame crushes the index stream further).
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

// parseColumn parses nrows cells of c's kind from the front of p into c
// and returns the rest. Every cell is checked: its framing, a code inside
// c's dictionary, a numeric value (raw cell or numeric-dictionary entry)
// that is finite. Before any column is allocated it checks that p can
// back nrows cells: at least 1 byte per code or dictionary index and 4
// per raw float.
func parseColumn(p []byte, c *table.Column, nrows int) ([]byte, error) {
	if c.Kind == table.Categorical {
		if err := backs(p, nrows, 1); err != nil {
			return nil, err
		}
		c.Codes = make([]int32, nrows)
		for r := 0; r < nrows; r++ {
			v, n := cell(p)
			if n <= 0 {
				return nil, fmt.Errorf("row %d: truncated or overlong cell", r)
			}
			if v >= uint64(len(c.Dict)) {
				return nil, fmt.Errorf("code %d outside dictionary of %d", v, len(c.Dict))
			}
			c.Codes[r] = int32(v)
			p = p[n:]
		}
		return p, nil
	}
	if len(p) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	enc, p := p[0], p[1:]
	switch enc {
	case numEncRaw:
		if err := backs(p, nrows, 4); err != nil {
			return nil, err
		}
		c.Floats = make([]float64, nrows)
		for r := 0; r < nrows; r++ {
			bits := binary.LittleEndian.Uint32(p[4*r:])
			if !finite32(bits) {
				return nil, fmt.Errorf("row %d: value %g is not finite", r, math.Float32frombits(bits))
			}
			c.Floats[r] = float64(math.Float32frombits(bits))
		}
		return p[4*nrows:], nil
	case numEncDict:
		dlen, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("truncated or overlong numeric dictionary size")
		}
		if dlen > dictLimit {
			return nil, fmt.Errorf("numeric dictionary size %d exceeds limit", dlen)
		}
		p = p[n:]
		if err := backs(p, int(dlen), 4); err != nil {
			return nil, err
		}
		dict := make([]float64, dlen)
		for i := 0; i < int(dlen); i++ {
			bits := binary.LittleEndian.Uint32(p[4*i:])
			if !finite32(bits) {
				return nil, fmt.Errorf("numeric dictionary entry %d: value %g is not finite", i, math.Float32frombits(bits))
			}
			dict[i] = float64(math.Float32frombits(bits))
		}
		p = p[4*dlen:]
		if err := backs(p, nrows, 1); err != nil {
			return nil, err
		}
		c.Floats = make([]float64, nrows)
		for r := 0; r < nrows; r++ {
			v, n := cell(p)
			if n <= 0 {
				return nil, fmt.Errorf("row %d: truncated or overlong cell", r)
			}
			if v >= dlen {
				return nil, fmt.Errorf("numeric dictionary index %d out of range %d", v, dlen)
			}
			c.Floats[r] = dict[v]
			p = p[n:]
		}
		return p, nil
	default:
		return nil, fmt.Errorf("unknown numeric column encoding %d", enc)
	}
}

// finite32 reports whether the float32 with these bits is finite: its
// exponent is not all ones (an infinity or a NaN). No writer stores
// either.
func finite32(bits uint32) bool { return bits&0x7f800000 != 0x7f800000 }

// backs checks that p holds at least size bytes for each of n cells.
func backs(p []byte, n, size int) error {
	if uint64(len(p))/uint64(size) < uint64(n) {
		return fmt.Errorf("%d cells of at least %d bytes each cannot fit in %d bytes", n, size, len(p))
	}
	return nil
}

// cell parses one uvarint cell from the front of p like binary.Uvarint;
// a byte below 0x80 is a whole cell.
func cell(p []byte) (uint64, int) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), 1
	}
	return binary.Uvarint(p)
}

// readChunk is the step readFullGrowing grows its buffer by.
const readChunk = 1 << 20

// readFullGrowing reads exactly n bytes into dst's storage when it has
// room for them, and otherwise into a buffer grown in bounded chunks so a
// lying length cannot force a huge upfront allocation: a truncated input
// fails after at most one chunk of slack. n is checked against limit here
// rather than trusting the caller's guard: the function is the
// allocation sink, so the bound that protects it must travel with the
// call.
func readFullGrowing(r io.Reader, dst []byte, n, limit uint64) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("codec: read length %d exceeds limit %d", n, limit)
	}
	if uint64(cap(dst)) >= n {
		dst = dst[:n]
		if _, err := io.ReadFull(r, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	dst = dst[:0]
	for uint64(len(dst)) < n {
		want := min(n-uint64(len(dst)), readChunk)
		start := len(dst)
		dst = append(dst, make([]byte, want)...)
		if _, err := io.ReadFull(r, dst[start:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// putUvarint appends into the writer's free buffer, so the per-cell
// T′ loop does not heap-allocate a scratch array on every call.
func putUvarint(bw *bufio.Writer, v uint64) error {
	_, err := bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
	return err
}
