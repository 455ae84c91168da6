// Package archive writes SPARTAN's one compressed container (see
// internal/codec) a segment at a time and queries it with zone-map
// pruning, so tables far larger than memory compress in bounded space and
// decode with seek-and-prune access. Models are learned once per archive
// — one sample, one dependency finder run, one CaRT selection — and every
// segment is a codec body applied against them: its own row aggregation,
// outliers and T'. The container stores the model block once and ends in
// a footer of per-segment extents, row counts and zone maps, letting
// Query skip segments a predicate provably excludes without touching
// their bodies.
//
// Writer learns on its first block and recodes later blocks into the
// archive dictionaries on top of codec.Writer; WriteTable learns on the
// whole table and applies the models to its segments in parallel.
// SegReader adds zone-map pruned queries to codec.Reader, the one
// decoder of the format.
package archive

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/table"
)

// Writer appends segments to an archive, learning the archive's models
// from the first block and applying them to every block. The first write
// error latches (see codec.Writer): every later WriteBlock and Close
// refuses with it.
type Writer struct {
	cw    *codec.Writer
	opts  core.Options
	model *core.Model // learned from the first block; nil before it
	// dicts are the archive dictionaries: the learn input's, extended by
	// values later blocks bring. index maps their values to codes and is
	// built when a block first needs recoding.
	dicts  [][]string
	index  []map[string]int32
	err    error // Close's result
	closed bool
}

// NewWriter starts an archive on w. The options apply to the whole
// archive: the models, and the resolution of quantile tolerances, come
// from the first block written (WriteTable learns on the whole table).
func NewWriter(w io.Writer, opts core.Options) (*Writer, error) {
	return &Writer{cw: codec.NewWriter(w), opts: opts}, nil
}

// WriteBlock compresses one segment of rows. The first block's rows are
// the learn input for the whole archive; every later block must carry
// the same schema, and its categorical codes are remapped into the
// archive dictionaries once, here. The first block's Stats include the
// learn step's timings and counts (see core.Model.AddLearnStats); the
// model block itself is written by Close.
func (aw *Writer) WriteBlock(t *table.Table) (*core.Stats, error) {
	if aw.closed {
		return nil, fmt.Errorf("archive: writer is closed")
	}
	m := aw.model
	if m == nil {
		var err error
		if m, err = core.Learn(context.Background(), t, aw.opts); err != nil {
			return nil, err
		}
	} else {
		if err := sameSchema(m.Block().Schema, t.Schema()); err != nil {
			return nil, err
		}
		var err error
		if t, err = aw.remap(t); err != nil {
			return nil, err
		}
	}
	res, err := compressSegment(context.Background(), m, t)
	if err != nil {
		return nil, err // nothing reached the stream; the writer stays usable
	}
	if aw.model == nil {
		// The learn input's dictionaries become the archive dictionaries,
		// clipped so appending new values never writes into them.
		aw.model = m
		aw.dicts = make([][]string, len(m.Block().Dicts))
		for c, d := range m.Block().Dicts {
			aw.dicts[c] = slices.Clip(d)
		}
		aw.index = make([]map[string]int32, len(aw.dicts))
		m.AddLearnStats(res.stats)
	}
	if err := aw.cw.WriteSegment(res.body, res.rows, res.zones); err != nil {
		return nil, err
	}
	return res.stats, nil
}

// remap returns t with every categorical column coded against the
// archive dictionary, appending the values the archive has not seen yet.
// A block that codec.CheckTable refuses, or that would grow a
// dictionary past what the default reader accepts, is refused with
// codec.ErrNotFloat32 or codec.ErrExceedsLimits, changing nothing.
func (aw *Writer) remap(t *table.Table) (*table.Table, error) {
	if err := codec.CheckTable(t); err != nil {
		return nil, err
	}
	for c := range t.NumCols() {
		src := t.Col(c)
		if src.Kind != table.Categorical {
			continue
		}
		if aw.index[c] == nil {
			aw.index[c] = make(map[string]int32, len(aw.dicts[c]))
			for code, v := range aw.dicts[c] {
				aw.index[c][v] = int32(code)
			}
		}
		n := len(aw.dicts[c])
		for _, v := range src.Dict {
			if _, ok := aw.index[c][v]; !ok {
				n++
			}
		}
		if err := codec.CheckDict(t.Attr(c).Name, n); err != nil {
			return nil, err
		}
	}
	cols := make([]*table.Column, t.NumCols())
	for c := range cols {
		src := t.Col(c)
		cols[c] = src
		if src.Kind != table.Categorical {
			continue
		}
		codeOf := make([]int32, len(src.Dict))
		for i, v := range src.Dict {
			code, ok := aw.index[c][v]
			if !ok {
				code = int32(len(aw.dicts[c]))
				aw.index[c][v] = code
				aw.dicts[c] = append(aw.dicts[c], v)
			}
			codeOf[i] = code
		}
		codes := make([]int32, len(src.Codes))
		for r, code := range src.Codes {
			codes[r] = codeOf[code]
		}
		cols[c] = &table.Column{Kind: table.Categorical, Codes: codes, Dict: slices.Clip(aw.dicts[c])}
	}
	return table.New(t.Schema(), cols)
}

// Blocks returns how many segments have been written.
func (aw *Writer) Blocks() int { return aw.cw.NumSegments() }

// Close writes the terminator, the model block (with the archive
// dictionaries), the footer and the trailer, then flushes. The writer
// cannot be reused; Close is idempotent and returns the first call's
// result.
func (aw *Writer) Close() error {
	if !aw.closed {
		aw.closed = true
		var mb *codec.ModelBlock
		if aw.model != nil {
			final := *aw.model.Block()
			final.Dicts = aw.dicts
			mb = &final
		}
		_, aw.err = aw.cw.Close(mb)
	}
	return aw.err
}

func sameSchema(a, b table.Schema) error {
	if len(a) != len(b) {
		return fmt.Errorf("archive: segment has %d attributes, archive has %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("archive: segment attribute %d is %v, archive has %v", i, b[i], a[i])
		}
	}
	return nil
}

// ReadAll is codec.Decode. It stays because benchmark/workloads.go calls it.
func ReadAll(r io.Reader) (*table.Table, error) {
	return codec.Decode(r)
}
