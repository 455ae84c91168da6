package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

// writeTempTable materializes a CDR table as CSV and raw binary fixtures.
func writeTempTable(t *testing.T) (csvPath, binPath string) {
	t.Helper()
	dir := t.TempDir()
	tb := datagen.CDR(800, 1)
	csvPath = filepath.Join(dir, "t.csv")
	binPath = filepath.Join(dir, "t.bin")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := spartan.WriteCSV(cf, tb); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	bf, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := spartan.WriteBinary(bf, tb); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	return csvPath, binPath
}

func TestCompressVerifyDecompressFlow(t *testing.T) {
	_, binPath := writeTempTable(t)
	dir := filepath.Dir(binPath)
	sptn := filepath.Join(dir, "t.sptn")
	out := filepath.Join(dir, "restored.bin")

	if err := cmdCompress([]string{"-in", binPath, "-out", sptn, "-tolerance", "0.01", "-q"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-original", binPath, "-compressed", sptn}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", sptn, "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := spartan.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumRows() != 800 {
		t.Errorf("restored %d rows", restored.NumRows())
	}
}

func TestCompressCSVWithForcedCategorical(t *testing.T) {
	csvPath, _ := writeTempTable(t)
	dir := filepath.Dir(csvPath)
	sptn := filepath.Join(dir, "c.sptn")
	if err := cmdCompress([]string{"-in", csvPath, "-out", sptn,
		"-tolerance", "0.01", "-categorical", "src_exchange,dst_exchange", "-q"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-original", csvPath, "-compressed", sptn,
		"-categorical", "src_exchange,dst_exchange"}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockArchiveFlow(t *testing.T) {
	_, binPath := writeTempTable(t)
	dir := filepath.Dir(binPath)
	sptn := filepath.Join(dir, "blocks.sptn")
	if err := cmdCompress([]string{"-in", binPath, "-out", sptn,
		"-tolerance", "0.01", "-segment-rows", "300", "-q"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-original", binPath, "-compressed", sptn}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-in", sptn, "-agg", "sum", "-col", "charge_cents",
		"-where", "duration_sec > 100", "-groupby", "plan"}); err != nil {
		t.Fatal(err)
	}
}

// captureOutput runs fn with *f (os.Stdout or os.Stderr) redirected into
// a pipe and returns what fn wrote there.
func captureOutput(t *testing.T, f **os.File, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		got <- string(b)
	}()
	old := *f
	*f = w
	err = fn()
	*f = old
	w.Close()
	return <-got, err
}

// TestCompressQuietSegmented checks that -q also silences the
// per-segment and archive statistics of a segmented compress.
func TestCompressQuietSegmented(t *testing.T) {
	_, binPath := writeTempTable(t)
	sptn := filepath.Join(filepath.Dir(binPath), "quiet.sptn")
	stderr, err := captureOutput(t, &os.Stderr, func() error {
		return cmdCompress([]string{"-in", binPath, "-out", sptn,
			"-tolerance", "0.01", "-segment-rows", "300", "-q"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stderr != "" {
		t.Errorf("-q compress wrote to stderr:\n%s", stderr)
	}
}

// TestCompressSegmentedReport checks that a segmented compress names the
// shared predicted attributes once, before the per-segment lines.
func TestCompressSegmentedReport(t *testing.T) {
	_, binPath := writeTempTable(t)
	sptn := filepath.Join(filepath.Dir(binPath), "report.sptn")
	stderr, err := captureOutput(t, &os.Stderr, func() error {
		return cmdCompress([]string{"-in", binPath, "-out", sptn, "-tolerance", "0.01", "-segment-rows", "300"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "predicted: ") || !strings.HasPrefix(lines[1], "segment 0: ") ||
		strings.Count(stderr, "predicted") != 1 {
		t.Errorf("segmented compress report:\n%s\nwant one predicted line before the segment lines", stderr)
	}
}

func TestQueryAndInspectAndDeps(t *testing.T) {
	csvPath, binPath := writeTempTable(t)
	dir := filepath.Dir(binPath)
	sptn := filepath.Join(dir, "q.sptn")
	if err := cmdCompress([]string{"-in", binPath, "-out", sptn, "-tolerance", "0.01", "-q"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-in", sptn, "-agg", "avg", "-col", "charge_cents",
		"-groupby", "call_type"}); err != nil {
		t.Fatal(err)
	}
	out, err := captureOutput(t, &os.Stdout, func() error { return cmdInspect([]string{"-in", sptn}) })
	if err != nil {
		t.Fatal(err)
	}
	// Each attribute's line names the tolerance the file records: 1% of
	// the original's range for a numeric attribute, 0 for a categorical.
	orig, err := readTable(binPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range spartan.UniformTolerances(orig, 0.01, 0) {
		a := orig.Attr(i)
		want := fmt.Sprintf("max mismatch rate %g", e.Value)
		if a.Kind == spartan.Numeric {
			want = fmt.Sprintf("max error %g", e.Value*orig.Col(i).Range())
		}
		line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(a.Name) + ` .*$`).FindString(out)
		if !strings.HasSuffix(line, want) {
			t.Errorf("inspect line for %s does not end in %q:\n%s", a.Name, want, out)
		}
	}
	if err := cmdDeps([]string{"-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDeps([]string{"-in", csvPath, "-dot"}); err != nil {
		t.Fatal(err)
	}
}

// TestQueryEntryPointsAgree: on /compress output, /query, spartan query
// and QueryArchive give the same answer, all from the tolerances the
// archive records.
func TestQueryEntryPointsAgree(t *testing.T) {
	srv := httptest.NewServer(server.New(server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))))
	defer srv.Close()
	var raw bytes.Buffer
	if err := spartan.WriteBinary(&raw, datagen.CDR(800, 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/compress?tolerance=0.01", "application/octet-stream", &raw)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d, %v", resp.StatusCode, err)
	}
	const where = "duration_sec > 100"

	a, err := spartan.OpenArchive(bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := spartan.ParsePredicate(where, a.Schema())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := spartan.QueryArchive(a, spartan.Query{Agg: spartan.Avg, Column: "charge_cents", Where: pred, GroupBy: "plan"})
	if err != nil {
		t.Fatal(err)
	}

	resp, err = http.Post(srv.URL+"/query?"+url.Values{
		"agg": {"avg"}, "col": {"charge_cents"}, "groupby": {"plan"}, "where": {where},
	}.Encode(), "application/x-spartan", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Groups []struct {
			Key             string
			Value, Lo, Hi   float64
			Rows, Uncertain int
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("/query answered %d groups, QueryArchive %d", len(got.Groups), len(want.Groups))
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.Key != w.Key || g.Value != w.Value || g.Lo != w.Lo || g.Hi != w.Hi || g.Rows != w.Rows || g.Uncertain != w.UncertainRows {
			t.Errorf("/query group %+v, QueryArchive %+v", g, w)
		}
	}

	path := filepath.Join(t.TempDir(), "q.sptn")
	if err := os.WriteFile(path, compressed, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureOutput(t, &os.Stdout, func() error {
		return cmdQuery([]string{"-in", path, "-agg", "avg", "-col", "charge_cents",
			"-groupby", "plan", "-where", where})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want.Groups {
		line := fmt.Sprintf("%-16s %14.4g   [%.4g, %.4g]  (%d rows, %d uncertain)", w.Key, w.Value, w.Lo, w.Hi, w.Rows, w.UncertainRows)
		if !strings.Contains(out, line) {
			t.Errorf("spartan query output lacks QueryArchive's %q:\n%s", line, out)
		}
	}
}

// TestEntryPointsAgree: spartan.Compress, spartan compress and POST
// /compress write the same bytes for one table and one set of options,
// as one segment and as 500-row segments; and SegmentOptions{} writes one
// segment however many rows the table has.
func TestEntryPointsAgree(t *testing.T) {
	_, binPath := writeTempTable(t)
	raw, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := readTable(binPath)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))))
	defer srv.Close()
	for _, rows := range []int{0, 500} {
		var lib bytes.Buffer
		opts := spartan.Options{Tolerances: spartan.UniformTolerances(tb, 0.01, 0)}
		if _, err := spartan.Compress(context.Background(), &lib, tb, opts, spartan.SegmentOptions{SegmentRows: rows}); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "cli.sptn")
		if err := cmdCompress([]string{"-in", binPath, "-out", out, "-tolerance", "0.01",
			"-segment-rows", fmt.Sprint(rows), "-q"}); err != nil {
			t.Fatal(err)
		}
		cli, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(fmt.Sprintf("%s/compress?tolerance=0.01&segment-rows=%d", srv.URL, rows),
			"application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cli, lib.Bytes()) || !bytes.Equal(served, lib.Bytes()) {
			t.Errorf("segment-rows %d: spartan.Compress wrote %d bytes, spartan compress %d, /compress %d (equal: %v, %v)",
				rows, lib.Len(), len(cli), len(served), bytes.Equal(cli, lib.Bytes()), bytes.Equal(served, lib.Bytes()))
		}
	}

	b, err := spartan.NewBuilder(spartan.Schema{{Name: "a", Kind: spartan.Numeric}, {Name: "b", Kind: spartan.Numeric}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70000; i++ {
		b.MustAppendRow(float64(i%97), float64(i%97*2))
	}
	big, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := spartan.Compress(context.Background(), io.Discard, big, spartan.Options{}, spartan.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 {
		t.Errorf("SegmentOptions{} wrote %d segments of %d rows, want one", stats.Segments, big.NumRows())
	}
}

func TestCommandErrors(t *testing.T) {
	_, binPath := writeTempTable(t)
	dir := filepath.Dir(binPath)
	sptn := filepath.Join(dir, "e.sptn")
	if err := cmdCompress([]string{"-in", binPath, "-out", sptn, "-q"}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() error
	}{
		{"compress missing flags", func() error { return cmdCompress(nil) }},
		{"compress unknown selection", func() error {
			return cmdCompress([]string{"-in", binPath, "-out", sptn, "-selection", "bogus"})
		}},
		{"compress missing input", func() error {
			return cmdCompress([]string{"-in", filepath.Join(dir, "nope"), "-out", sptn})
		}},
		{"compress unknown forced column", func() error {
			return cmdCompress([]string{"-in", binPath, "-out", sptn, "-categorical", "zzz"})
		}},
		{"decompress missing flags", func() error { return cmdDecompress(nil) }},
		{"verify missing flags", func() error { return cmdVerify(nil) }},
		{"verify different original", func() error {
			// Compressed lossless above: verifying against a *different*
			// original must fail.
			other := filepath.Join(dir, "other.bin")
			f, err := os.Create(other)
			if err != nil {
				return err
			}
			if err := spartan.WriteBinary(f, datagen.CDR(800, 99)); err != nil {
				return err
			}
			f.Close()
			return cmdVerify([]string{"-original", other, "-compressed", sptn})
		}},
		{"inspect missing flags", func() error { return cmdInspect(nil) }},
		{"query unknown agg", func() error {
			return cmdQuery([]string{"-in", sptn, "-agg", "median"})
		}},
		{"query bad where", func() error {
			return cmdQuery([]string{"-in", sptn, "-agg", "count", "-where", "nope >"})
		}},
		{"query NaN constant", func() error {
			return cmdQuery([]string{"-in", sptn, "-agg", "count", "-where", "duration_sec < NaN"})
		}},
		{"deps missing flags", func() error { return cmdDeps(nil) }},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSelectionFromName(t *testing.T) {
	for name, want := range map[string]spartan.SelectionStrategy{
		"wmis-parents": spartan.SelectWMISParents,
		"wmis-markov":  spartan.SelectWMISMarkov,
		"greedy":       spartan.SelectGreedy,
	} {
		got, err := selectionFromName(name)
		if err != nil || got != want {
			t.Errorf("selectionFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := selectionFromName("zzz"); err == nil {
		t.Error("selectionFromName accepted unknown name")
	}
}

// TestArchiveQueriesUseRecordedTolerance: a lossy archive is queried
// through every entry point with no tolerance from the caller. Each
// takes the tolerance the archive records, so every interval contains
// the answer on the original table; with a zero tolerance they did not.
// The archive holds 8000 CDR rows sorted by start_hour in 4 segments,
// written at 1% numeric tolerance, so start_hour>=22 is answered from
// the pruned archive and duration_sec>60 from every segment.
func TestArchiveQueriesUseRecordedTolerance(t *testing.T) {
	cdr := datagen.CDR(8000, 1)
	hour := cdr.Col(cdr.Schema().Index("start_hour")).Floats
	order := make([]int, cdr.NumRows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return hour[order[a]] < hour[order[b]] })
	orig, err := cdr.SelectRows(order)
	if err != nil {
		t.Fatal(err)
	}
	writeTol := spartan.UniformTolerances(orig, 0.01, 0)
	var buf bytes.Buffer
	if _, err := spartan.Compress(context.Background(), &buf, orig, spartan.Options{Tolerances: writeTol}, spartan.SegmentOptions{SegmentRows: 2000}); err != nil {
		t.Fatal(err)
	}
	compressed := buf.Bytes()
	path := filepath.Join(t.TempDir(), "sorted.sptn")
	if err := os.WriteFile(path, compressed, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := spartan.OpenArchive(bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	srv := httptest.NewServer(server.New(server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))))
	defer srv.Close()

	contains := func(what string, g spartan.QueryGroup, truth map[string]float64) {
		t.Helper()
		if w := truth[g.Key]; !(w >= g.Lo && w <= g.Hi) {
			t.Errorf("%s: group %q: truth %g outside [%g, %g]", what, g.Key, w, g.Lo, g.Hi)
		}
	}
	for _, where := range []string{"duration_sec > 60", "start_hour >= 22"} {
		t.Run(where, func(t *testing.T) {
			pred, err := spartan.ParsePredicate(where, orig.Schema())
			if err != nil {
				t.Fatal(err)
			}
			q := spartan.Query{Agg: spartan.Avg, Column: "charge_cents", Where: pred, GroupBy: "plan"}
			exact, err := spartan.RunQuery(orig, nil, q)
			if err != nil {
				t.Fatal(err)
			}
			truth := make(map[string]float64, len(exact.Groups))
			for _, g := range exact.Groups {
				truth[g.Key] = g.Value
			}

			want, _, err := spartan.QueryArchive(a, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Groups) != len(exact.Groups) {
				t.Fatalf("QueryArchive answered %d groups, the original table %d", len(want.Groups), len(exact.Groups))
			}
			for _, g := range want.Groups {
				contains("QueryArchive", g, truth)
			}
			spanned, _, err := a.QuerySpan(context.Background(), nil, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range spanned.Groups {
				contains("SegReader.QuerySpan", g, truth)
			}
			zero, _, err := a.Query(make(spartan.Tolerances, len(orig.Schema())), q)
			if err != nil {
				t.Fatal(err)
			}
			written, _, err := a.Query(writeTol, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(zero, written) {
				t.Errorf("SegReader.Query with a zero tolerance answered %+v, with the write tolerance %+v", zero.Groups, written.Groups)
			}

			resp, err := http.Post(srv.URL+"/query?"+url.Values{
				"agg": {"avg"}, "col": {"charge_cents"}, "groupby": {"plan"}, "where": {where},
			}.Encode(), "application/x-spartan", bytes.NewReader(compressed))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Groups []struct {
					Key    string
					Lo, Hi float64
				}
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Groups) != len(exact.Groups) {
				t.Fatalf("/query answered %d groups, the original table %d", len(got.Groups), len(exact.Groups))
			}
			for _, g := range got.Groups {
				contains("/query", spartan.QueryGroup{Key: g.Key, Lo: g.Lo, Hi: g.Hi}, truth)
			}

			// spartan query prints QueryArchive's intervals, rounded.
			out, err := captureOutput(t, &os.Stdout, func() error {
				return cmdQuery([]string{"-in", path, "-agg", "avg", "-col", "charge_cents", "-groupby", "plan", "-where", where})
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range want.Groups {
				line := fmt.Sprintf("%-16s %14.4g   [%.4g, %.4g]  (%d rows, %d uncertain)", w.Key, w.Value, w.Lo, w.Hi, w.Rows, w.UncertainRows)
				if !strings.Contains(out, line) {
					t.Errorf("spartan query output lacks QueryArchive's %q:\n%s", line, out)
				}
			}
		})
	}
}
