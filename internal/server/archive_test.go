package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// TestDecompressSegmentedArchive: /decompress restores the multi-segment
// archives that /compress?segment-rows= produces.
func TestDecompressSegmentedArchive(t *testing.T) {
	srv := testServer(t)
	compressed := monotonicArchive(t, srv)

	resp, err := http.Post(srv.URL+"/decompress", "application/x-spartan", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("decompress status = %d: %s", resp.StatusCode, body)
	}
	back, err := table.ReadBinary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2000 {
		t.Fatalf("restored %d rows, want 2000", back.NumRows())
	}
	for r := 0; r < back.NumRows(); r++ {
		if v := back.Float(r, 0); v != float64(r) {
			t.Fatalf("row %d: v = %g, want %d", r, v, r)
		}
	}
}

// TestQueryRejectsBlockArchive: the footer-less block archive format
// (magic "SPARC1\n") is no longer read; /query answers it with 400.
func TestQueryRejectsBlockArchive(t *testing.T) {
	srv := testServer(t)
	var stream bytes.Buffer
	if _, err := core.Compress(&stream, datagen.CDR(300, 1), core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	data := []byte("SPARC1\n")
	data = binary.AppendUvarint(data, uint64(stream.Len()))
	data = append(data, stream.Bytes()...)
	data = append(data, 0)

	resp, err := http.Post(srv.URL+"/query?agg=count", "application/x-spartan", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}
