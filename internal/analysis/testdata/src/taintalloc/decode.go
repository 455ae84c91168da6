// Fixture for the taintalloc analyzer (declares package codec so the
// scoped analyzer runs). Mirrors the shape of the real decode path:
// varint counts, DecodeLimits guards, min-clamped capacity hints,
// allocation helpers whose parameters are summarized sinks.
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
)

type DecodeLimits struct {
	MaxRows uint64
	MaxCols uint64
}

var errTooBig = errors.New("too big")

// zeroFill's n bounds an appending loop: a summarized sink parameter.
func zeroFill(n int) []float64 {
	out := []float64{}
	for len(out) < n {
		out = append(out, 0)
	}
	return out
}

// readCount launders the wire read through a helper: its summary says
// the wire flows into result 0.
func readCount(br *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(br)
}

func decodeUnguarded(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want "wire-tainted value reaches make size unguarded"
}

func decodeGuarded(br *bufio.Reader, lim DecodeLimits) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > lim.MaxRows {
		return nil, errTooBig
	}
	return make([]byte, n), nil
}

func decodeClamped(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return make([]byte, 0, min(n, 1<<12)), nil
}

// The taint survives the readCount wrapper (interprocedural source).
func decodeViaWrapper(br *bufio.Reader) ([]byte, error) {
	n, err := readCount(br)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want "wire-tainted value reaches make size unguarded"
}

// The sink lives inside the helper (interprocedural sink).
func decodeViaHelper(br *bufio.Reader, lim DecodeLimits) ([]float64, []float64, error) {
	rows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	bad := zeroFill(int(rows)) // want "wire-tainted value flows into zeroFill and reaches allocating loop bound unguarded"
	if rows > lim.MaxRows {
		return nil, nil, errTooBig
	}
	good := zeroFill(int(rows))
	return bad, good, nil
}

func decodeLoop(br *bufio.Reader) ([]int32, error) {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	out := []int32{}
	for i := uint64(0); i < count; i++ { // want "wire-tainted value reaches allocating loop bound unguarded"
		out = append(out, int32(i))
	}
	return out, nil
}

func decodeGrow(br *bufio.Reader, buf *bytes.Buffer) error {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	buf.Grow(int(n)) // want "wire-tainted value reaches bytes.Buffer.Grow size unguarded"
	return nil
}

func decodeIndex(br *bufio.Reader, dict []string) (string, error) {
	ix, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	return dict[ix], nil // want "wire-tainted value reaches index unguarded"
}

func decodeIndexGuarded(br *bufio.Reader, dict []string) (string, error) {
	ix, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if ix >= uint64(len(dict)) {
		return "", errTooBig
	}
	return dict[ix], nil
}

// Short-circuit guard inside one condition: seen[a] only evaluates
// when the left disjunct is false, i.e. a is in range — the matIdx
// idiom from the real codec.
func decodeShortCircuit(br *bufio.Reader, seen []bool) error {
	a, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if a >= uint64(len(seen)) || seen[a] {
		return errTooBig
	}
	seen[a] = true
	return nil
}

// Reassignment to a trusted value ends suspicion.
func decodeReassigned(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	return make([]byte, n), nil
}
