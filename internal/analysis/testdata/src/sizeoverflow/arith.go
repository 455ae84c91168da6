// Fixture for the sizeoverflow analyzer (declares package cart so the
// scoped analyzer runs). Covers the delta-accumulation bug shape from
// the real model decoder: huge wire varints narrowed to int, and
// products of wire counts.
package cart

import (
	"bufio"
	"encoding/binary"
	"errors"
)

var errRange = errors.New("out of range")

func rowDeltaUnguarded(br *bufio.Reader) (int, error) {
	delta, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	return int(delta), nil // want "wire-tainted uint64 narrowed to int without a range check"
}

func rowDeltaGuarded(br *bufio.Reader) (int, error) {
	delta, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if delta > 1<<30 {
		return 0, errRange
	}
	return int(delta), nil
}

func codeNarrow(br *bufio.Reader) (int32, error) {
	code, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	return int32(code), nil // want "wire-tainted uint64 narrowed to int32 without a range check"
}

// Widening with the same signedness is value-preserving: clean.
func widen(br *bufio.Reader) (uint64, error) {
	var b [1]byte
	if _, err := br.Read(b[:]); err != nil {
		return 0, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > 1<<20 {
		return 0, errRange
	}
	return n * 2, nil // bounded first: no product finding either
}

func matrixUnguarded(br *bufio.Reader) ([]float64, error) {
	rows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	cols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return make([]float64, rows*cols), nil // want "size arithmetic \(\*\) on a wire-tainted operand may overflow"
}

func matrixGuarded(br *bufio.Reader) ([]float64, error) {
	rows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	cols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if rows > 1<<20 || cols > 1<<16 {
		return nil, errRange
	}
	return make([]float64, rows*cols), nil
}

func shiftUnguarded(br *bufio.Reader) (uint64, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	return n << 8, nil // want "size arithmetic \(<<\) on a wire-tainted operand may overflow"
}
