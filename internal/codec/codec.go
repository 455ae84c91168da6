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
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
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

// Encode returns the model block: the byte length and CRC-32 of its
// payload, then the payload (schema with dictionaries, recorded
// tolerances, materialized attributes, model count and trees). It
// refuses a tolerance the decoder would refuse.
func (mb *ModelBlock) Encode() ([]byte, Breakdown, error) {
	var bd Breakdown
	if len(mb.Tolerances) != len(mb.Schema) {
		return nil, bd, fmt.Errorf("codec: %d tolerances for %d attributes", len(mb.Tolerances), len(mb.Schema))
	}
	payload := table.AppendSchema(nil, mb.Schema, mb.Dicts)
	for i, e := range mb.Tolerances {
		if err := checkTolerance(mb.Schema, i, e.Value); err != nil {
			return nil, bd, err
		}
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(e.Value))
	}
	payload = binary.AppendUvarint(payload, uint64(len(mb.Materialized)))
	for _, a := range mb.Materialized {
		payload = binary.AppendUvarint(payload, uint64(a))
	}
	header := len(payload)
	payload = binary.AppendUvarint(payload, uint64(len(mb.Models)))
	for _, m := range mb.Models {
		var err error
		if payload, err = m.AppendBinary(payload); err != nil {
			return nil, bd, err
		}
	}
	block := appendChecked(nil, payload)
	bd.HeaderBytes = len(block) - len(payload) + header
	bd.ModelBytes = len(payload) - header
	return block, bd, nil
}

// EncodeBody writes one body: src's row count, the outliers (outliers[i]
// belongs to mb.Models[i]) and T'. src must have mb's schema, its
// categorical codes must index the dictionaries the body is decoded
// with, and its materialized columns carry the final (e.g. grid-snapped)
// values; its predicted columns are ignored (the models replace them).
func (mb *ModelBlock) EncodeBody(w io.Writer, src *table.Table, outliers [][]cart.Outlier) (Breakdown, error) {
	var bd Breakdown
	if src.NumCols() != len(mb.Schema) {
		return bd, fmt.Errorf("codec: body has %d attributes, model block %d", src.NumCols(), len(mb.Schema))
	}
	if len(outliers) != len(mb.Models) {
		return bd, fmt.Errorf("codec: %d outlier lists for %d models", len(outliers), len(mb.Models))
	}
	var out []byte
	for i, m := range mb.Models {
		var err error
		if out, err = cart.AppendOutliers(out, m.TargetKind, outliers[i]); err != nil {
			return bd, err
		}
	}

	// T': the frame index, then one raw-deflate frame per materialized
	// column, in the order of mb.Materialized.
	d := tprimeDeflaters.get()
	defer tprimeDeflaters.put(d)
	var index []byte
	for _, a := range mb.Materialized {
		f, raw, err := d.frame(src.Col(a))
		if err != nil {
			return bd, err
		}
		d.frames = append(d.frames, f...)
		index = binary.AppendUvarint(index, uint64(len(f)))
		index = binary.AppendUvarint(index, uint64(raw))
		index = binary.LittleEndian.AppendUint32(index, crc32.ChecksumIEEE(f))
	}

	head := binary.AppendUvarint(nil, uint64(src.NumRows()))
	bd.HeaderBytes = len(head)
	head = appendChecked(head, out)
	bd.ModelBytes = len(head) - bd.HeaderBytes
	head = binary.AppendUvarint(head, uint64(len(index)+len(d.frames)))
	head = append(head, index...)
	bd.TPrimeBytes = len(head) - bd.HeaderBytes - bd.ModelBytes + len(d.frames)
	for _, b := range [][]byte{head, d.frames} {
		if _, err := w.Write(b); err != nil {
			return bd, err
		}
	}
	return bd, nil
}

// appendChecked appends a length-prefixed, CRC-32-protected section
// holding payload to dst.
func appendChecked(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
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

// ErrNotFloat32 is returned, wrapped, for a table with a numeric value
// that float32 cannot hold exactly. An archive stores numeric values as
// float32, so such a value would decode rounded, past a tolerance of 0.
// table.Builder rounds its input to float32; a table built with
// table.New may not be. Test for it with errors.Is.
var ErrNotFloat32 = errors.New("codec: numeric value not exactly representable as float32")

// CheckTable returns ErrExceedsLimits, wrapped, if the default reader
// would refuse an archive of t, and ErrNotFloat32, wrapped, if a numeric
// cell of t would not round-trip through the archive.
func CheckTable(t *table.Table) error {
	if n, max := uint64(t.NumCols()), (DecodeLimits{}).withDefaults().MaxCols; n > max {
		return fmt.Errorf("%w: %d attributes, at most %d", ErrExceedsLimits, n, max)
	}
	for c := range t.NumCols() {
		col := t.Col(c)
		if err := CheckDict(t.Attr(c).Name, len(col.Dict)); err != nil {
			return err
		}
		for r, v := range col.Floats {
			if float64(float32(v)) != v {
				return fmt.Errorf("%w: attribute %q row %d is %v", ErrNotFloat32, t.Attr(c).Name, r, v)
			}
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

// DecodeModelBlock decodes a model block returned by ModelBlock.Encode,
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

// readChecked reads a section written by appendChecked, verifying its
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

// Reading keeps what one body's decode needs for the next, as the writers
// keep their deflaters: a flate reader with its inflate state, and one pool
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
// stream, and returns the achieved bits per value. SPARTAN uses this on
// sample columns to price materialization during CaRT selection. T'
// itself keeps the shorter of a Huffman-only and a level-4 stream, so
// the price only approximates what the column costs there. It excludes
// six bytes of fixed stream overhead, which keeps the price equal to
// that of the frame's gzip stream, 18 bytes longer, less 24 bytes: the
// price the selection's plans have been made with. The result is floored
// at 0.25 bits.
func EstimateBitsPerValue(c *table.Column) (float64, error) {
	n := c.Len()
	if n == 0 {
		return 0, nil
	}
	d := estimateDeflaters.get()
	defer estimateDeflaters.put(d)
	stream, _, err := d.frame(c)
	if err != nil {
		return 0, err
	}
	payload := len(stream) - 6
	if payload < 1 {
		payload = 1
	}
	bits := float64(payload*8) / float64(n)
	if bits < 0.25 {
		bits = 0.25
	}
	return bits, nil
}

// Deflaters come from free lists, one per use: BestSpeed for the
// estimator, and Huffman-only with level 4 for T' frames. Each flate
// writer holds 0.7–1.2 MB of inline hash tables, and ingest deflates
// every sample column and every segment's T'. A sync.Pool would drop
// them at every collection, so each list is a stack that a collection
// leaves alone, holding at most maxIdleDeflaters writers per level. The
// stack hands out the deflater put back last, whose buffers fit the
// current tables; a FIFO channel would hand out the one idle longest,
// whose buffers must often grow again. A writer Reset onto a new stream
// writes the same bytes as a new one.
var (
	estimateDeflaters = newDeflaters(flate.BestSpeed)
	tprimeDeflaters   = newDeflaters(flate.HuffmanOnly, 4)
)

// maxIdleDeflaters bounds each free list; a deflater put back into a
// full list is dropped.
const maxIdleDeflaters = 4

// deflaters is a free list of deflaters with one writer per level.
type deflaters struct {
	levels []int
	mu     sync.Mutex
	idle   []*deflater // the last put on top
}

func newDeflaters(levels ...int) *deflaters {
	return &deflaters{levels: levels, idle: make([]*deflater, 0, maxIdleDeflaters)}
}

// get returns the deflater put back last, or a new one.
func (l *deflaters) get() *deflater {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		d := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return d
	}
	l.mu.Unlock()
	d := &deflater{streams: make([]bytes.Buffer, len(l.levels))}
	for _, level := range l.levels {
		zw, err := flate.NewWriter(nil, level)
		if err != nil {
			panic(err) // levels are flate's constants
		}
		d.zw = append(d.zw, zw)
	}
	return d
}

// put returns d, with no frames, to the list, dropping each buffer that
// grew past one readChunk so a huge segment does not stay pinned, and
// drops d itself when the list is full.
func (l *deflaters) put(d *deflater) {
	for i := range d.streams {
		if d.streams[i].Cap() > readChunk {
			d.streams[i] = bytes.Buffer{}
		}
	}
	if cap(d.cells) > readChunk {
		d.cells = nil
	}
	if cap(d.frames) > readChunk {
		d.frames = nil
	}
	if 4*cap(d.dict.ids) > readChunk {
		d.dict.ids = nil
	}
	d.frames = d.frames[:0]
	l.mu.Lock()
	if len(l.idle) < maxIdleDeflaters {
		l.idle = append(l.idle, d)
	}
	l.mu.Unlock()
}

// deflater deflates one column at a time: it writes the column's cells
// once into cells, deflates them with each of its writers zw[i] into
// streams[i], and keeps the shortest stream, the first on a tie. frames
// collects a body's chosen streams, back to back.
type deflater struct {
	zw      []*flate.Writer
	streams []bytes.Buffer
	cells   []byte
	frames  []byte
	dict    numDict
}

// frame deflates c, in the T' cell encoding, and returns the shortest of
// its raw-deflate streams, valid until the next frame, and its inflated
// length.
func (d *deflater) frame(c *table.Column) (stream []byte, raw int, err error) {
	d.cells = appendColumn(d.cells[:0], c, &d.dict)
	for i, zw := range d.zw {
		d.streams[i].Reset()
		zw.Reset(&d.streams[i])
		if _, err := zw.Write(d.cells); err != nil {
			return nil, 0, err
		}
		if err := zw.Close(); err != nil {
			return nil, 0, err
		}
		if s := d.streams[i].Bytes(); stream == nil || len(s) < len(stream) {
			stream = s
		}
	}
	return stream, len(d.cells), nil
}

// Numeric column encodings inside the T' block. The RowAggregator's grid
// leaves lossy materialized columns with few distinct values, so a value
// dictionary plus per-row indexes usually beats raw 4-byte cells (and the
// column's deflate frame crushes the index stream further).
const (
	numEncRaw  byte = 0 // nrows × float32
	numEncDict byte = 1 // dict size, dict of float32, nrows × uvarint index
)

// dictLimit caps the dictionary encoding: beyond this many distinct
// values, raw float32 cells are at least as compact.
const dictLimit = 1 << 16

// appendColumn appends c's cells, in the T' cell encoding, to dst.
func appendColumn(dst []byte, c *table.Column, nd *numDict) []byte {
	if c.Kind == table.Numeric {
		return appendNumericColumn(dst, c.Floats, nd)
	}
	for _, code := range c.Codes {
		dst = binary.AppendUvarint(dst, uint64(code))
	}
	return dst
}

// appendNumericColumn appends vals as a dictionary of its distinct
// values, ascending, and one index per row, or as raw cells when vals
// hold more than dictLimit distinct values. nd is the dictionary's
// scratch.
func appendNumericColumn(dst []byte, vals []float64, nd *numDict) []byte {
	if !nd.build(vals) {
		dst = append(dst, numEncRaw)
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
		return dst
	}
	dict := append(nd.sorted[:0], nd.distinct...)
	slices.Sort(dict)
	rank := slices.Grow(nd.rank[:0], len(dict))[:len(dict)]
	for i, v := range dict {
		rank[nd.slots[nd.find(v)]-1] = uint32(i)
	}
	nd.sorted, nd.rank = dict, rank
	dst = append(dst, numEncDict)
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, v := range dict {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	for _, id := range nd.ids {
		dst = binary.AppendUvarint(dst, uint64(rank[id]))
	}
	return dst
}

// numDict numbers a numeric column's distinct values without a map: an
// open-addressing table of ids, kept at most half full, over the values
// in first-seen order. Each deflater keeps one, so each column
// reuses the buffers of the last.
type numDict struct {
	slots    []int32   // 1 + the id of the value probed there; 0 when empty
	shift    uint      // 64 - log2(len(slots))
	distinct []float64 // id -> value, in first-seen order
	ids      []int32   // row -> id of its value
	sorted   []float64 // the distinct values, ascending
	rank     []uint32  // id -> position in sorted
}

// build numbers vals in ids and distinct and reports whether they hold
// at most dictLimit distinct values; it stops at the first value past
// the limit. Values key by ==, as in a map[float64]: -0 and +0 share the
// entry of whichever comes first.
func (nd *numDict) build(vals []float64) bool {
	nd.distinct = nd.distinct[:0]
	nd.resize(256)
	ids := slices.Grow(nd.ids[:0], len(vals))[:len(vals)]
	nd.ids = ids
	for r, v := range vals {
		i := nd.find(v)
		s := nd.slots[i]
		if s == 0 {
			if len(nd.distinct) == dictLimit {
				return false
			}
			nd.distinct = append(nd.distinct, v)
			s = int32(len(nd.distinct))
			nd.slots[i] = s
			if 2*len(nd.distinct) > len(nd.slots) {
				nd.resize(2 * len(nd.slots))
			}
		}
		ids[r] = s - 1
	}
	return true
}

// find returns the slot holding v, or the empty slot where v belongs.
// -0 hashes as +0, so the two zeros probe the same slots.
func (nd *numDict) find(v float64) int {
	b := math.Float64bits(v)
	if b == 1<<63 {
		b = 0
	}
	mask := len(nd.slots) - 1
	for i := int((b * 0x9e3779b97f4a7c15) >> nd.shift); ; i = (i + 1) & mask {
		if s := nd.slots[i]; s == 0 || nd.distinct[s-1] == v {
			return i
		}
	}
}

// resize empties the table to n slots, a power of two, and reinserts
// the distinct values.
func (nd *numDict) resize(n int) {
	nd.slots = slices.Grow(nd.slots[:0], n)[:n]
	clear(nd.slots)
	nd.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for id, v := range nd.distinct {
		nd.slots[nd.find(v)] = int32(id + 1)
	}
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
