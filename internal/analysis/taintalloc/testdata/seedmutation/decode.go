// Package codec is a stdlib-only mirror of the real
// internal/codec hostile-input decode path, used by the seed-mutation
// self-test: the guarded form below must analyze clean, and deleting
// the DecodeLimits checks (the `if ... lim.X ...` statements) must
// reproduce taintalloc findings. If the real decoder's shape drifts far
// enough that this mirror no longer represents it, update both.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// DecodeLimits caps what a hostile stream can claim, as in the real codec.
type DecodeLimits struct {
	MaxRows       uint64
	MaxModelBytes uint64
}

// readFullGrowing reads n bytes in bounded chunks, growing dst as data
// actually arrives — the loop bound n is a sink parameter.
func readFullGrowing(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	for len(dst) < n {
		chunk := min(n-len(dst), 1<<20)
		buf := make([]byte, chunk)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		dst = append(dst, buf...)
	}
	return dst, nil
}

// decodeHeader mirrors DecodeLimited's header reads: row count and
// models-section length, both wire varints, both checked against lim
// before they reach an allocation.
func decodeHeader(br *bufio.Reader, lim DecodeLimits) ([]float64, []byte, error) {
	nrowsU, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("reading row count: %w", err)
	}
	if nrowsU > lim.MaxRows {
		return nil, nil, fmt.Errorf("row count %d exceeds limit %d", nrowsU, lim.MaxRows)
	}
	nrows := int(nrowsU)
	modelsLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("reading models length: %w", err)
	}
	if modelsLen > lim.MaxModelBytes {
		return nil, nil, fmt.Errorf("models length %d exceeds limit %d", modelsLen, lim.MaxModelBytes)
	}
	modelBytes := make([]byte, 0, min(int(modelsLen), 1<<20))
	modelBytes, err = readFullGrowing(br, modelBytes, int(modelsLen))
	if err != nil {
		return nil, nil, err
	}
	vals := make([]float64, nrows)
	return vals, modelBytes, nil
}
