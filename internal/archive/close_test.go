package archive

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/query"
)

// TestSegReaderCloseIdempotent: Close is safe to call any number of
// times, on nil receivers included, and reads after Close fail with
// the typed error instead of touching a dead stream.
func TestSegReaderCloseIdempotent(t *testing.T) {
	tb := prunableTable(t, 300)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 300}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Segment(0); err != nil {
		t.Fatalf("Segment before Close: %v", err)
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("second Close should be a no-op, got %v", err)
	}

	if _, err := sr.Segment(0); !errors.Is(err, codec.ErrReaderClosed) {
		t.Errorf("Segment after Close: want ErrReaderClosed, got %v", err)
	}
	if _, err := sr.ReadAll(); !errors.Is(err, codec.ErrReaderClosed) {
		t.Errorf("ReadAll after Close: want ErrReaderClosed, got %v", err)
	}
	if _, _, err := sr.Query(nil, query.Query{Agg: query.Count}); !errors.Is(err, codec.ErrReaderClosed) {
		t.Errorf("Query after Close: want ErrReaderClosed, got %v", err)
	}

	// Footer metadata needs no stream and stays readable after Close.
	if sr.NumSegments() == 0 || sr.Schema() == nil {
		t.Error("footer metadata should survive Close")
	}
}

func TestSegReaderCloseNilReceiver(t *testing.T) {
	var sr *SegReader
	if err := sr.Close(); err != nil {
		t.Fatalf("nil receiver Close: want nil, got %v", err)
	}
}

// TestSegReaderCloseFile: a file-backed reader closes the underlying
// *os.File exactly once — the second reader Close must not surface the
// file's double-close error.
func TestSegReaderCloseFile(t *testing.T) {
	tb := prunableTable(t, 200)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 200}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "close.spn")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(f)
	if err != nil {
		_ = f.Close()
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The underlying descriptor is gone: the file rejects reads.
	if _, err := f.Read(make([]byte, 1)); err == nil {
		t.Error("underlying file should be closed")
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("second Close on file-backed reader: want nil, got %v", err)
	}
}

// TestSegReaderCloseNonCloser: an in-memory stream has nothing to
// close; Close just severs the reference.
func TestSegReaderCloseNonCloser(t *testing.T) {
	tb := prunableTable(t, 100)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{}); err != nil {
		t.Fatal(err)
	}
	var rs io.ReadSeeker = bytes.NewReader(buf.Bytes())
	sr, err := OpenSegmented(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("Close over a non-Closer stream: %v", err)
	}
}
