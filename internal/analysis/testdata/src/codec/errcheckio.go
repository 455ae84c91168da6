// Fixture for the errcheckio analyzer: package base name "codec" puts it
// in scope, mirroring repro/internal/codec.
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
)

func dropped(w *bufio.Writer, buf *bytes.Buffer, payload []byte) {
	w.Write(payload)                                // want `error from Write is discarded`
	w.WriteString("header")                         // want `error from WriteString is discarded`
	w.WriteByte(0)                                  // want `error from WriteByte is discarded`
	w.Flush()                                       // want `error from Flush is discarded`
	buf.Write(payload)                              // want `error from Write is discarded`
	io.Copy(w, buf)                                 // want `error from io.Copy is discarded`
	binary.Write(w, binary.LittleEndian, uint32(1)) // want `error from encoding/binary.Write is discarded`
	json.NewEncoder(w).Encode(payload)              // want `error from Encode is discarded`
}

func checked(w *bufio.Writer, payload []byte) error {
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return nil
}

func explicitDiscard(w *bufio.Writer, payload []byte) {
	// Assigning to blank is a reviewed, intentional discard.
	_, _ = w.Write(payload)
	_ = w.Flush()
}

func deferredClose(c io.Closer) {
	// Deferred calls are exempt: the error has nowhere to go.
	defer c.Close()
}

func notIO(payload []byte) {
	record(payload) // non-io callee names are not flagged
}

func record([]byte) error { return nil }
