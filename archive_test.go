package spartan

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/table"
)

// TestArchiveRoundTripToleranceRespected drives the public archive API
// end to end: blocks in, one table out, every numeric value within the
// tolerance it was compressed under.
func TestArchiveRoundTripToleranceRespected(t *testing.T) {
	tb := datagen.CDR(3000, 9)
	// Absolute tolerances so every block enforces the same bound.
	tol := make(Tolerances, tb.NumCols())
	for i := 0; i < tb.NumCols(); i++ {
		if tb.Attr(i).Kind == Numeric {
			tol[i] = Tolerance{Value: 0.01 * tb.Col(i).Range()}
		}
	}

	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	const blockRows = 800
	for lo := 0; lo < tb.NumRows(); lo += blockRows {
		hi := lo + blockRows
		if hi > tb.NumRows() {
			hi = tb.NumRows()
		}
		rows := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			rows = append(rows, r)
		}
		block, err := tb.SelectRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aw.WriteBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if aw.Blocks() != 4 {
		t.Fatalf("blocks = %d, want 4", aw.Blocks())
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Decompress(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() {
		t.Fatalf("rows = %d, want %d", back.NumRows(), tb.NumRows())
	}
	// Verify checks every value against the tolerance vector; do a direct
	// spot check of the max deviation as well so a Verify regression
	// cannot mask a bound violation here.
	if err := Verify(tb, back, tol); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < tb.NumCols(); c++ {
		if tb.Attr(c).Kind != Numeric {
			continue
		}
		worst := 0.0
		for r := 0; r < tb.NumRows(); r++ {
			worst = math.Max(worst, math.Abs(tb.Float(r, c)-back.Float(r, c)))
		}
		if worst > tol[c].Value+1e-9 {
			t.Errorf("column %s: max deviation %g exceeds tolerance %g",
				tb.Attr(c).Name, worst, tol[c].Value)
		}
	}
}

// TestArchiveReaderStreamsBlocks reads the archive block by block
// through the public Archive's Segment and checks every row comes back.
func TestArchiveReaderStreamsBlocks(t *testing.T) {
	tb := datagen.CDR(1200, 5)
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	half := tb.NumRows() / 2
	for _, bounds := range [][2]int{{0, half}, {half, tb.NumRows()}} {
		rows := make([]int, 0, bounds[1]-bounds[0])
		for r := bounds[0]; r < bounds[1]; r++ {
			rows = append(rows, r)
		}
		block, err := tb.SelectRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aw.WriteBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := OpenArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rows := 0
	for i := 0; i < a.NumSegments(); i++ {
		block, err := a.Segment(i)
		if err != nil {
			t.Fatal(err)
		}
		rows += block.NumRows()
	}
	if a.NumSegments() != 2 || rows != tb.NumRows() {
		t.Errorf("read %d blocks / %d rows, want 2 / %d", a.NumSegments(), rows, tb.NumRows())
	}
}

// TestRetiredStreamRefused: the retired formats are refused with
// ErrNotArchive by every reader: Decompress and OpenArchive, and with 400
// by /decompress and /query. They are the stream format (the magic
// "SPRTN2\n", a model block and one body, with no footer) and the
// "SPARC3\n" archive, whose bodies held T' as one gzip stream.
func TestRetiredStreamRefused(t *testing.T) {
	tb := datagen.CDR(300, 1)
	m, err := core.Learn(context.Background(), tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	block, _, err := m.Block().Encode()
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.NewBuffer(append([]byte("SPRTN2\n"), block...))
	if _, err := m.Apply(context.Background(), stream, tb); err != nil {
		t.Fatal(err)
	}
	// A SPARC3 archive kept the container's framing: its magics are as
	// long as today's.
	var archive bytes.Buffer
	if _, err := Compress(context.Background(), &archive, tb, Options{}, SegmentOptions{}); err != nil {
		t.Fatal(err)
	}
	sparc3 := archive.Bytes()
	copy(sparc3, "SPARC3\n")
	copy(sparc3[len(sparc3)-8:], "SPARC3E\n")

	srv := httptest.NewServer(server.New(server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))))
	defer srv.Close()
	for name, data := range map[string][]byte{"SPRTN2": stream.Bytes(), "SPARC3": sparc3} {
		if _, err := Decompress(bytes.NewReader(data)); !errors.Is(err, ErrNotArchive) {
			t.Errorf("%s: Decompress = %v, want ErrNotArchive", name, err)
		}
		if _, err := OpenArchive(bytes.NewReader(data)); !errors.Is(err, ErrNotArchive) {
			t.Errorf("%s: OpenArchive = %v, want ErrNotArchive", name, err)
		}
		for _, route := range []string{"/decompress", "/query?agg=count"} {
			resp, err := http.Post(srv.URL+route, "application/x-spartan", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: %s: status %d, want 400", name, route, resp.StatusCode)
			}
		}
	}
}

// TestWriterRefusesWhatReaderRefuses: a table with more attributes than
// the default reader accepts (2^16) is refused with ErrExceedsLimits
// before anything is learned, by Compress and by an ArchiveWriter's
// first block. Without the check the dependency finder would start on
// its ≈2^31 attribute pairs.
func TestWriterRefusesWhatReaderRefuses(t *testing.T) {
	const ncols = 1<<16 + 1
	schema := make(Schema, ncols)
	cols := make([]*table.Column, ncols)
	for c := range schema {
		schema[c] = Attribute{Name: "a" + strconv.Itoa(c), Kind: Numeric}
		cols[c] = &table.Column{Kind: Numeric, Floats: []float64{float64(c)}}
	}
	wide, err := table.New(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Compress(context.Background(), io.Discard, wide, Options{}, SegmentOptions{}); !errors.Is(err, ErrExceedsLimits) {
		t.Errorf("Compress = %v, want ErrExceedsLimits", err)
	}
	aw, err := NewArchiveWriter(io.Discard, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.WriteBlock(wide); !errors.Is(err, ErrExceedsLimits) {
		t.Errorf("WriteBlock = %v, want ErrExceedsLimits", err)
	}
	t.Logf("both refused in %v", time.Since(start))
}
