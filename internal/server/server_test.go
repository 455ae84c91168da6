package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/table"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(WithLogger(discardLogger())))
	t.Cleanup(srv.Close)
	return srv
}

func tableBody(t *testing.T, tb *table.Table) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteBinary(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestHealth(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	srv := testServer(t)
	tb := datagen.CDR(1500, 1)

	resp, err := http.Post(srv.URL+"/compress?tolerance=0.01", "application/octet-stream", tableBody(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("compress status = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Spartan-Ratio") == "" {
		t.Error("missing ratio header")
	}
	compressed, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= tb.RawSizeBytes() {
		t.Errorf("compressed %d B >= raw %d B", len(compressed), tb.RawSizeBytes())
	}

	resp2, err := http.Post(srv.URL+"/decompress", "application/x-spartan", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("decompress status = %d", resp2.StatusCode)
	}
	back, err := table.ReadBinary(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() || back.NumCols() != tb.NumCols() {
		t.Errorf("restored shape %dx%d", back.NumRows(), back.NumCols())
	}
	diffs, err := table.MaxAbsDiff(tb, back)
	if err != nil {
		t.Fatal(err)
	}
	tol, err := table.UniformTolerances(tb, 0.01, 0).Resolve(tb)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d > tol[i].Value+1e-9 {
			t.Errorf("attribute %d error %g > %g", i, d, tol[i].Value)
		}
	}
}

func TestCompressCSVInput(t *testing.T) {
	srv := testServer(t)
	csv := "x,y\n1,a\n2,b\n3,a\n"
	resp, err := http.Post(srv.URL+"/compress", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	// Decompress back as CSV.
	compressed, _ := io.ReadAll(resp.Body)
	req, err := http.NewRequest("POST", srv.URL+"/decompress", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/csv")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	out, _ := io.ReadAll(resp2.Body)
	if string(out) != csv {
		t.Errorf("CSV round trip:\n%s\nwant:\n%s", out, csv)
	}
}

// TestCompressHeaderOnlyCSV: a CSV with a header and no rows compresses
// to one empty segment and decompresses back to its header, with or
// without a segment size.
func TestCompressHeaderOnlyCSV(t *testing.T) {
	srv := testServer(t)
	const csv = "x,y\n"
	for _, params := range []string{"", "?segment-rows=100"} {
		resp, err := http.Post(srv.URL+"/compress"+params, "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		compressed, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Spartan-Segments") != "1" {
			t.Fatalf("compress%s: status %d, %q segments: %q", params, resp.StatusCode, resp.Header.Get("X-Spartan-Segments"), compressed)
		}
		req, err := http.NewRequest("POST", srv.URL+"/decompress", bytes.NewReader(compressed))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/csv")
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK || string(out) != csv {
			t.Errorf("decompress%s: status %d, body %q, want %q", params, resp2.StatusCode, out, csv)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	tb := datagen.CDR(2000, 2)
	resp, err := http.Post(srv.URL+"/compress?tolerance=0.01", "application/octet-stream", tableBody(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	compressed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	url := srv.URL + "/query?agg=avg&col=charge_cents&groupby=plan&where=" +
		"duration_sec%20%3E%20100"
	resp2, err := http.Post(url, "application/x-spartan", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("query status = %d: %s", resp2.StatusCode, body)
	}
	var out queryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Agg != "AVG" || len(out.Groups) != 3 {
		t.Errorf("response %+v, want AVG with 3 plan groups", out)
	}
	for _, g := range out.Groups {
		if g.Value == nil || g.Lo == nil || g.Hi == nil {
			t.Errorf("group %q missing values", g.Key)
			continue
		}
		if *g.Lo > *g.Value || *g.Value > *g.Hi {
			t.Errorf("group %q: value %g outside [%g, %g]", g.Key, *g.Value, *g.Lo, *g.Hi)
		}
	}
	// /query reports its stage timings like /compress does (§4.2 parity).
	for _, hdr := range []string{"X-Spartan-Timing-Decode", "X-Spartan-Timing-Aggregate", "X-Spartan-Timing-Total"} {
		v := resp2.Header.Get(hdr)
		if v == "" {
			t.Errorf("missing %s header", hdr)
			continue
		}
		if _, err := time.ParseDuration(v); err != nil {
			t.Errorf("%s = %q: %v", hdr, v, err)
		}
	}
}

// TestPhaseMetricsExposition: one compress and one query must populate
// the query-latency histogram and the generic spartan_phase_* bridge
// families (per-trace, per-phase durations and allocation attribution)
// on /metrics.
func TestPhaseMetricsExposition(t *testing.T) {
	srv := testServer(t)
	tb := datagen.CDR(1200, 4)
	resp, err := http.Post(srv.URL+"/compress?tolerance=0.01", "application/octet-stream", tableBody(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	compressed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	resp2, err := http.Post(srv.URL+"/query?agg=count", "application/x-spartan", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp2.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`spartan_phase_duration_seconds_count{trace="query",phase="query"} 1`,
		`spartan_phase_duration_seconds_count{trace="query",phase="decode"} 1`,
		`spartan_phase_duration_seconds_count{trace="query",phase="aggregate"} 1`,
		`spartan_phase_duration_seconds_count{trace="compress",phase="cart_selection"} 1`,
		`spartan_phase_alloc_bytes_count{trace="compress",phase="encode"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSegmentedCompressAndQuery: /compress?segment-rows= yields an
// archive whose shared plan is named in X-Spartan-Predicted, and /query
// answers it through the footer, pruning zone-map refuted segments
// without decoding them (visible in headers and the
// spartan_query_segments_total counter).
func TestSegmentedCompressAndQuery(t *testing.T) {
	srv := testServer(t)
	// The leading column increases with the row index, so each segment
	// covers a disjoint value range and a range predicate can refute
	// whole segments. h is a function of the random g, so a CaRT
	// predicts it.
	b, err := table.NewBuilder(table.Schema{
		{Name: "v", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
		{Name: "h", Kind: table.Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g := rng.Intn(2)
		b.MustAppendRow(float64(i), []string{"a", "b"}[g], []string{"x", "y"}[g])
	}
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/compress?segment-rows=500", "application/octet-stream", tableBody(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("compress status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Spartan-Segments"); got != "4" {
		t.Errorf("X-Spartan-Segments = %q, want 4", got)
	}
	compressed, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(compressed, []byte("SPARC3\n")) {
		t.Fatalf("compressed body does not start with the archive magic")
	}
	// The plan is learned once on the whole table, so it is the one a
	// one-segment /compress of the same rows reports.
	single, err := http.Post(srv.URL+"/compress", "application/octet-stream", tableBody(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, single.Body)
	single.Body.Close()
	got, want := resp.Header.Get("X-Spartan-Predicted"), single.Header.Get("X-Spartan-Predicted")
	if got == "" || got != want {
		t.Errorf("segmented X-Spartan-Predicted = %q, want the one-segment %q", got, want)
	}

	// v > 1700 refutes the first three segments ([0,500), [500,1000),
	// [1000,1500)); only the last can match.
	resp2, err := http.Post(srv.URL+"/query?agg=count&where=v+%3E+1700",
		"application/x-spartan", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("query status = %d: %s", resp2.StatusCode, body)
	}
	if got := resp2.Header.Get("X-Spartan-Segments-Pruned"); got != "3" {
		t.Errorf("X-Spartan-Segments-Pruned = %q, want 3", got)
	}
	if got := resp2.Header.Get("X-Spartan-Segments-Decoded"); got != "1" {
		t.Errorf("X-Spartan-Segments-Decoded = %q, want 1", got)
	}
	// The stage headers are disjoint spans, so they fit inside the total.
	var staged time.Duration
	for _, hdr := range []string{"X-Spartan-Timing-Decode", "X-Spartan-Timing-Aggregate"} {
		d, err := time.ParseDuration(resp2.Header.Get(hdr))
		if err != nil {
			t.Fatalf("%s: %v", hdr, err)
		}
		staged += d
	}
	if total, err := time.ParseDuration(resp2.Header.Get("X-Spartan-Timing-Total")); err != nil || staged > total {
		t.Errorf("Decode + Aggregate = %v exceeds Total %q (%v)", staged, resp2.Header.Get("X-Spartan-Timing-Total"), err)
	}
	var out queryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Groups) != 1 || out.Groups[0].Value == nil || *out.Groups[0].Value != 299 {
		t.Errorf("count response %+v, want one group of 299 rows", out)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// One span per stage: the server times the footer open, and the
	// archive's query times prune, decode and aggregate.
	for _, want := range []string{
		`spartan_query_segments_total{result="pruned"} 3`,
		`spartan_query_segments_total{result="decoded"} 1`,
		`spartan_phase_duration_seconds_count{trace="query",phase="open"} 1`,
		`spartan_phase_duration_seconds_count{trace="query",phase="prune"} 1`,
		`spartan_phase_duration_seconds_count{trace="query",phase="decode"} 1`,
		`spartan_phase_duration_seconds_count{trace="query",phase="aggregate"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	tb := datagen.CDR(100, 3)

	post := func(url, ct string, body io.Reader) int {
		resp, err := http.Post(url, ct, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body) // draining only; the asserts below are on the status
		return resp.StatusCode
	}

	if code := post(srv.URL+"/compress", "application/octet-stream", strings.NewReader("garbage")); code != http.StatusBadRequest {
		t.Errorf("garbage table: status %d", code)
	}
	if code := post(srv.URL+"/compress?tolerance=abc", "application/octet-stream", tableBody(t, tb)); code != http.StatusBadRequest {
		t.Errorf("bad tolerance: status %d", code)
	}
	if code := post(srv.URL+"/compress?selection=nope", "application/octet-stream", tableBody(t, tb)); code != http.StatusBadRequest {
		t.Errorf("bad selection: status %d", code)
	}
	if code := post(srv.URL+"/decompress", "application/x-spartan", strings.NewReader("garbage")); code != http.StatusBadRequest {
		t.Errorf("garbage stream: status %d", code)
	}
	if code := post(srv.URL+"/query?agg=frobnicate", "application/x-spartan", strings.NewReader("garbage")); code != http.StatusBadRequest {
		t.Errorf("garbage query: status %d", code)
	}

	// Valid stream, invalid query column.
	var buf bytes.Buffer
	if err := table.WriteBinary(&buf, tb); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/compress", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	compressed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if code := post(srv.URL+"/query?agg=sum&col=missing", "application/x-spartan", bytes.NewReader(compressed)); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown column: status %d", code)
	}
	// GET on a POST route.
	respGet, err := http.Get(srv.URL + "/compress")
	if err != nil {
		t.Fatal(err)
	}
	respGet.Body.Close()
	if respGet.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compress: status %d", respGet.StatusCode)
	}
}
