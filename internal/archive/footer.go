// Archive footer: the model block's extent and per-segment metadata
// (byte extents, row counts, zone maps), serialized after the model
// block, followed by a fixed-size trailer that locates and checksums it.
// Every read parses the footer first: it locates the model block, plans
// which segment bodies to decode, and each decoded segment is checked
// against its entry.
package archive

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/table"
)

// Trailer layout: crc32(footer) uint32 LE, footer length uint32 LE, end
// magic. Fixed size so a reader finds it at EOF−16 without scanning.
const (
	endMagic    = "SPARC3E\n"
	trailerSize = 4 + 4 + len(endMagic)
)

// maxFooterBytes caps the trailer's declared footer length (256 MiB —
// far above any real footer, which costs tens of bytes per segment).
const maxFooterBytes = 1 << 28

// ZoneMap summarizes one column of one segment for predicate pruning.
type ZoneMap struct {
	// Min and Max bound every value the segment can decode to for a
	// numeric column: the observed range widened by the archive-wide
	// resolved compression tolerance, the bound every segment
	// reconstructs within, so lossy reconstruction stays inside the
	// zone. Zero for categorical columns.
	Min, Max float64
	// Fingerprint is a 64-bit membership filter for a categorical
	// column: bit fpBit(v) is set for every dictionary value v present
	// in the segment. A clear bit proves absence; a set bit proves
	// nothing (collisions). Zero for numeric columns.
	Fingerprint uint64
}

// MayContain reports whether the categorical value could be present in
// the zone's segment. False is definite absence.
func (z ZoneMap) MayContain(value string) bool {
	return z.Fingerprint&fpBit(value) != 0
}

// fpBit hashes a categorical value to its fingerprint bit.
func fpBit(value string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(value)) // fnv never fails
	return 1 << (h.Sum64() % 64)
}

// extent is where a section lives in the archive: its byte offset and
// length.
type extent struct{ Offset, Length int64 }

// SegmentInfo is one footer entry: where a segment's codec body lives
// and what its rows can contain.
type SegmentInfo struct {
	// Offset is the stream position of the segment's codec body (after
	// the uvarint length prefix); Length is its byte count.
	Offset, Length int64
	// Rows is the segment's row count.
	Rows int
	// Zones holds one ZoneMap per schema column.
	Zones []ZoneMap
}

// computeZones builds the per-column zone maps for one segment. Numeric
// zones are widened by the archive's resolved tolerances (nil for
// lossless) so decoded (lossy) values provably stay inside them.
func computeZones(t *table.Table, resolved table.Tolerances) []ZoneMap {
	zones := make([]ZoneMap, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		col := t.Col(i)
		if t.Attr(i).Kind == table.Numeric {
			lo, hi := col.MinMax()
			e := 0.0
			if resolved != nil {
				e = resolved[i].Value
			}
			zones[i] = ZoneMap{Min: lo - e, Max: hi + e}
			continue
		}
		// One pass over codes, hashing each dictionary entry at most once.
		seen := make([]bool, len(col.Dict))
		var fp uint64
		for _, code := range col.Codes {
			if !seen[code] {
				seen[code] = true
				fp |= fpBit(col.Dict[code])
			}
		}
		zones[i] = ZoneMap{Fingerprint: fp}
	}
	return zones
}

// writeFooter serializes the footer: the model block's extent (of length
// zero in an archive with no segments), then the segment directory with
// zone maps laid out by the schema's kinds. The schema itself, with its
// dictionaries, is in the model block.
func writeFooter(bw *bufio.Writer, modelBlock extent, schema table.Schema, segs []SegmentInfo) error {
	if err := putUvarint(bw, uint64(modelBlock.Offset)); err != nil {
		return err
	}
	if err := putUvarint(bw, uint64(modelBlock.Length)); err != nil {
		return err
	}
	if err := putUvarint(bw, uint64(len(segs))); err != nil {
		return err
	}
	for _, seg := range segs {
		if err := putUvarint(bw, uint64(seg.Offset)); err != nil {
			return err
		}
		if err := putUvarint(bw, uint64(seg.Length)); err != nil {
			return err
		}
		if err := putUvarint(bw, uint64(seg.Rows)); err != nil {
			return err
		}
		if len(seg.Zones) != len(schema) {
			return fmt.Errorf("archive: segment has %d zones for %d attributes", len(seg.Zones), len(schema))
		}
		for i, z := range seg.Zones {
			var b [8]byte
			if schema[i].Kind == table.Numeric {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(z.Min))
				if _, err := bw.Write(b[:]); err != nil {
					return err
				}
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(z.Max))
				if _, err := bw.Write(b[:]); err != nil {
					return err
				}
			} else {
				binary.LittleEndian.PutUint64(b[:], z.Fingerprint)
				if _, err := bw.Write(b[:]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// readExtent reads an extent from the footer and checks it lies inside
// an archive of size bytes, after the magic.
func readExtent(br *bufio.Reader, size int64, what string) (extent, error) {
	off, err := binary.ReadUvarint(br)
	if err != nil {
		return extent{}, fmt.Errorf("archive: reading %s offset: %w", what, err)
	}
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return extent{}, fmt.Errorf("archive: reading %s length: %w", what, err)
	}
	if off > maxArchiveBytes || off > uint64(size) || off < uint64(len(magic)) {
		return extent{}, fmt.Errorf("archive: footer %s offset %d outside archive of %d bytes", what, off, size)
	}
	if length > maxArchiveBytes || length > uint64(size)-off {
		return extent{}, fmt.Errorf("archive: footer %s length %d overruns archive of %d bytes", what, length, size)
	}
	return extent{Offset: int64(off), Length: int64(length)}, nil
}

// readSegments parses the footer's segment directory, which follows the
// model block's extent. schema is the model block's (nil when the
// archive has none, which then must have no segments); size is the
// total archive byte size, used to reject segment extents pointing
// outside the file; lim bounds the allocations a hostile footer could
// otherwise demand.
func readSegments(br *bufio.Reader, size int64, schema table.Schema, lim codec.DecodeLimits) ([]SegmentInfo, error) {
	lim = lim.WithDefaults()
	nsegs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("archive: reading footer segment count: %w", err)
	}
	if nsegs > maxFooterBytes || nsegs > uint64(size) {
		// Every segment costs at least one stream byte (and several footer
		// bytes), so a count past either size is a lie regardless of limits.
		return nil, fmt.Errorf("archive: footer claims %d segments in a %d-byte archive", nsegs, size)
	}
	if nsegs > 0 && schema == nil {
		return nil, fmt.Errorf("archive: footer claims %d segments but no model block", nsegs)
	}
	// Grow incrementally so a lying count cannot force a huge allocation
	// before the footer bytes run out.
	segs := make([]SegmentInfo, 0, min(int(nsegs), 1<<12))
	for s := uint64(0); s < nsegs; s++ {
		ext, err := readExtent(br, size, fmt.Sprintf("segment %d", s))
		if err != nil {
			return nil, err
		}
		rows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if rows > lim.MaxRows {
			return nil, fmt.Errorf("archive: footer segment %d row count %d exceeds limit %d", s, rows, lim.MaxRows)
		}
		zones := make([]ZoneMap, len(schema))
		for i := range zones {
			var b [8]byte
			if schema[i].Kind == table.Numeric {
				if _, err := io.ReadFull(br, b[:]); err != nil {
					return nil, err
				}
				zones[i].Min = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				if _, err := io.ReadFull(br, b[:]); err != nil {
					return nil, err
				}
				zones[i].Max = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			} else {
				if _, err := io.ReadFull(br, b[:]); err != nil {
					return nil, err
				}
				zones[i].Fingerprint = binary.LittleEndian.Uint64(b[:])
			}
		}
		segs = append(segs, SegmentInfo{
			Offset: ext.Offset,
			Length: ext.Length,
			Rows:   int(rows),
			Zones:  zones,
		})
	}
	return segs, nil
}

// makeTrailer builds the fixed-size trailer for the serialized footer.
func makeTrailer(footer []byte) ([trailerSize]byte, error) {
	var tr [trailerSize]byte
	if len(footer) > maxFooterBytes {
		return tr, fmt.Errorf("archive: footer of %d bytes exceeds format limit %d", len(footer), maxFooterBytes)
	}
	binary.LittleEndian.PutUint32(tr[0:4], crc32.ChecksumIEEE(footer))
	binary.LittleEndian.PutUint32(tr[4:8], uint32(len(footer)))
	copy(tr[8:], endMagic)
	return tr, nil
}

func putUvarint(bw *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := bw.Write(buf[:n])
	return err
}
