package table_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fascicle"
	"repro/internal/pzipref"
	"repro/internal/table"
)

// TestReadersRejectHostileSchemaHeaders feeds every reader of the schema
// header outside codec (whose cases live in codec.hostileCases) the same
// hostile headers. Each must refuse them with the shared message under
// its own package prefix, without panicking and without allocating for
// the claimed size.
func TestReadersRejectHostileSchemaHeaders(t *testing.T) {
	header := func(fields ...any) []byte {
		var b []byte
		for _, f := range fields {
			switch v := f.(type) {
			case uint64:
				b = binary.AppendUvarint(b, v)
			case string:
				b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
			case table.Kind:
				b = append(b, byte(v))
			}
		}
		return b
	}
	headers := []struct {
		name, wantErr string
		data          []byte
	}{
		{"no-cols", "column count 0 outside limit 65536", header(uint64(0))},
		{"cols", "column count 65537 outside limit 65536", header(uint64(1<<16 + 1))},
		{"name-length", "reading attribute name: implausible string length 33554432", header(uint64(1), uint64(1<<25))},
		{"kind", "unknown attribute kind 7", header(uint64(1), "a", table.Kind(7))},
		{"dict", "dictionary size 4194305 exceeds limit 4194304",
			header(uint64(1), "a", table.Categorical, uint64(1<<22+1))},
	}
	readers := []struct {
		prefix, magic string
		read          func([]byte) error
	}{
		{"table: ", "SPTBL1\n", func(b []byte) error {
			_, err := table.ReadBinary(bytes.NewReader(b))
			return err
		}},
		{"fascicle: ", "SPFAS1\n\x00", func(b []byte) error {
			_, err := fascicle.Decompress(b)
			return err
		}},
		{"pzipref: ", "SPPZP1\n", func(b []byte) error {
			_, err := pzipref.Decompress(b)
			return err
		}},
	}
	for _, r := range readers {
		for _, h := range headers {
			t.Run(strings.TrimSuffix(r.prefix, ": ")+"/"+h.name, func(t *testing.T) {
				var err error
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("reader panicked: %v", p)
						}
					}()
					err = r.read(append([]byte(r.magic), h.data...))
				}()
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatal("reader accepted a hostile header")
				}
				if want := r.prefix + h.wantErr; err.Error() != want {
					t.Errorf("error %q, want %q", err, want)
				}
				if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
					t.Errorf("reader allocated %d bytes rejecting the header", delta)
				}
			})
		}
	}
}
