// Package pzipref implements a simplified column-grouping compressor in
// the spirit of Buchsbaum et al., "Engineering the Compression of Massive
// Tables" (SODA 2000) — the paper's reference [3] and the strongest
// syntactic (lossless) table compressor of its era.
//
// The idea: serialize groups of correlated columns together so that
// Lempel-Ziv windows see their joint redundancy, instead of gzipping the
// whole record stream. The original work trains an optimal contiguous
// partition; this implementation uses greedy agglomerative grouping
// guided by measured gzip sizes on a sample, then compresses each group
// independently at full scale.
package pzipref

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/table"
)

const magic = "SPPZP1\n"

// maxSampleRows bounds the row prefix used to evaluate candidate
// groupings.
const maxSampleRows = 512

// Compress serializes the table with learned column grouping. The output
// is lossless (modulo the float32 cell format shared by all compressors
// in this repository).
func Compress(t *table.Table) ([]byte, error) {
	groups := planGroups(t)

	out := table.AppendSchema([]byte(magic), t.Schema(), t.Dicts())
	out = binary.AppendUvarint(out, uint64(t.NumRows()))
	out = binary.AppendUvarint(out, uint64(len(groups)))
	for _, g := range groups {
		out = binary.AppendUvarint(out, uint64(len(g)))
		for _, c := range g {
			out = binary.AppendUvarint(out, uint64(c))
		}
	}
	for _, g := range groups {
		payload, err := gzipGroup(t, g, 0, t.NumRows())
		if err != nil {
			return nil, err
		}
		out = append(binary.AppendUvarint(out, uint64(len(payload))), payload...)
	}
	return out, nil
}

// planGroups chooses a contiguous column partition (like the original
// pzip) by greedy agglomeration on a row-prefix sample: repeatedly merge
// the adjacent pair of groups whose union compresses better than the two
// apart, until no merge helps.
func planGroups(t *table.Table) [][]int {
	sampleRows := t.NumRows()
	if sampleRows > maxSampleRows {
		sampleRows = maxSampleRows
	}
	groups := make([][]int, t.NumCols())
	sizes := make([]int, t.NumCols())
	for c := range groups {
		groups[c] = []int{c}
		sizes[c] = mustGzipSize(t, groups[c], sampleRows)
	}
	for len(groups) > 1 {
		bestI, bestGain, bestSize := -1, 0, 0
		for i := 0; i+1 < len(groups); i++ {
			merged := append(append([]int{}, groups[i]...), groups[i+1]...)
			size := mustGzipSize(t, merged, sampleRows)
			if gain := sizes[i] + sizes[i+1] - size; gain > bestGain {
				bestI, bestGain, bestSize = i, gain, size
			}
		}
		if bestI < 0 {
			break
		}
		groups[bestI] = append(groups[bestI], groups[bestI+1]...)
		sizes[bestI] = bestSize
		groups = append(groups[:bestI+1], groups[bestI+2:]...)
		sizes = append(sizes[:bestI+1], sizes[bestI+2:]...)
	}
	return groups
}

func mustGzipSize(t *table.Table, cols []int, rows int) int {
	payload, err := gzipGroup(t, cols, 0, rows)
	if err != nil {
		panic("pzipref: sizing group: " + err.Error())
	}
	return len(payload)
}

// gzipGroup serializes rows [lo, hi) of the given columns row-major and
// deflates them.
func gzipGroup(t *table.Table, cols []int, lo, hi int) ([]byte, error) {
	var cells []byte
	for r := lo; r < hi; r++ {
		for _, c := range cols {
			col := t.Col(c)
			if col.Kind == table.Numeric {
				cells = binary.LittleEndian.AppendUint32(cells, math.Float32bits(float32(col.Floats[r])))
			} else {
				cells = binary.AppendUvarint(cells, uint64(col.Codes[r]))
			}
		}
	}
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(cells); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress reconstructs a table written by Compress, preserving row
// order.
func Decompress(data []byte) (*table.Table, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("pzipref: bad magic")
	}
	br := bufio.NewReader(bytes.NewReader(data[len(magic):]))
	schema, dicts, err := table.ReadSchema(br, 1<<16, 1<<22)
	if err != nil {
		return nil, fmt.Errorf("pzipref: %w", err)
	}
	ncols := len(schema)
	nrowsU, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("pzipref: reading row count: %w", err)
	}
	if nrowsU > 1<<34 {
		return nil, fmt.Errorf("pzipref: implausible row count %d", nrowsU)
	}
	nrows := int(nrowsU)
	ngroups, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("pzipref: reading group count: %w", err)
	}
	if ngroups > uint64(ncols) {
		return nil, fmt.Errorf("pzipref: %d groups for %d columns", ngroups, ncols)
	}
	groups := make([][]int, ngroups)
	seen := make([]bool, ncols)
	for gi := range groups {
		glen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if glen == 0 || glen > uint64(ncols) {
			return nil, fmt.Errorf("pzipref: bad group size %d", glen)
		}
		g := make([]int, glen)
		for i := range g {
			c, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if c >= uint64(ncols) || seen[c] {
				return nil, fmt.Errorf("pzipref: bad group member %d", c)
			}
			seen[c] = true
			g[i] = int(c)
		}
		groups[gi] = g
	}
	for c, s := range seen {
		if !s {
			return nil, fmt.Errorf("pzipref: column %d missing from all groups", c)
		}
	}

	cols := make([]*table.Column, ncols)
	initialCap := nrows
	if initialCap > 1<<16 {
		initialCap = 1 << 16
	}
	for i := range cols {
		cols[i] = &table.Column{Kind: schema[i].Kind, Dict: dicts[i]}
		if schema[i].Kind == table.Numeric {
			cols[i].Floats = make([]float64, 0, initialCap)
		} else {
			cols[i].Codes = make([]int32, 0, initialCap)
		}
	}
	for _, g := range groups {
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("pzipref: reading group payload length: %w", err)
		}
		zr, err := gzip.NewReader(io.LimitReader(br, int64(plen)))
		if err != nil {
			return nil, fmt.Errorf("pzipref: opening group payload: %w", err)
		}
		zbr := bufio.NewReader(zr)
		var b4 [4]byte
		for r := 0; r < nrows; r++ {
			for _, c := range g {
				if schema[c].Kind == table.Numeric {
					if _, err := io.ReadFull(zbr, b4[:]); err != nil {
						zr.Close()
						return nil, fmt.Errorf("pzipref: reading group row %d: %w", r, err)
					}
					cols[c].Floats = append(cols[c].Floats,
						float64(math.Float32frombits(binary.LittleEndian.Uint32(b4[:]))))
					continue
				}
				code, err := binary.ReadUvarint(zbr)
				if err != nil {
					zr.Close()
					return nil, fmt.Errorf("pzipref: reading group row %d: %w", r, err)
				}
				if code >= uint64(len(dicts[c])) {
					zr.Close()
					return nil, fmt.Errorf("pzipref: code %d outside dictionary of column %d", code, c)
				}
				cols[c].Codes = append(cols[c].Codes, int32(code))
			}
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("pzipref: closing group payload: %w", err)
		}
	}
	return table.New(schema, cols)
}
