package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/table"
)

// monotonicArchive compresses a 2000-row table whose leading numeric
// column equals the row index, split into four 500-row segments, so a
// range predicate can refute any prefix of segments.
func monotonicArchive(t *testing.T, srv *httptest.Server) []byte {
	t.Helper()
	b, err := table.NewBuilder(table.Schema{
		{Name: "v", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"a", "b"}
	for i := 0; i < 2000; i++ {
		b.MustAppendRow(float64(i), groups[i%2])
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
	compressed, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return compressed
}

// scrapeMetrics returns the /metrics exposition body.
func scrapeMetrics(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestQueryPruningHeaders drives /query over the same archive with
// predicates that prune every segment, no segment, and a proper subset,
// checking the X-Spartan-Segments-* headers, the aggregate result, and
// the cumulative spartan_query_segments_total{result} counters after
// each request. Each case gets a fresh server so the counters start
// from zero.
func TestQueryPruningHeaders(t *testing.T) {
	cases := []struct {
		name            string
		where           string
		pruned, decoded int
		count           float64
	}{
		// v ranges over [0,2000) in four 500-row segments.
		{"all pruned", "v > 5000", 4, 0, 0},
		{"all decoded", "v >= 0", 0, 4, 2000},
		{"subset pruned", "v > 999", 2, 2, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := testServer(t)
			compressed := monotonicArchive(t, srv)
			resp, err := http.Post(srv.URL+"/query?agg=count&where="+url.QueryEscape(tc.where),
				"application/x-spartan", bytes.NewReader(compressed))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("query status = %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Spartan-Segments-Pruned"); got != strconv.Itoa(tc.pruned) {
				t.Errorf("X-Spartan-Segments-Pruned = %q, want %d", got, tc.pruned)
			}
			if got := resp.Header.Get("X-Spartan-Segments-Decoded"); got != strconv.Itoa(tc.decoded) {
				t.Errorf("X-Spartan-Segments-Decoded = %q, want %d", got, tc.decoded)
			}
			var out queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out.Groups) != 1 || out.Groups[0].Value == nil || *out.Groups[0].Value != tc.count {
				t.Errorf("count response %+v, want one group of %g rows", out, tc.count)
			}

			metrics := scrapeMetrics(t, srv)
			for _, want := range []string{
				`spartan_query_segments_total{result="pruned"} ` + strconv.Itoa(tc.pruned),
				`spartan_query_segments_total{result="decoded"} ` + strconv.Itoa(tc.decoded),
			} {
				// A zero-valued label may legitimately be absent from the
				// exposition until first incremented.
				if !strings.Contains(metrics, want) && !strings.HasSuffix(want, " 0") {
					t.Errorf("/metrics missing %q", want)
				}
			}
		})
	}
}

// TestQueryErrorNamesArchiveSegment: when the one segment a pruned
// /query decodes is corrupt, the error names its index in the archive,
// not its position among the kept segments.
func TestQueryErrorNamesArchiveSegment(t *testing.T) {
	srv := testServer(t)
	compressed := monotonicArchive(t, srv)
	sr, err := archive.OpenSegmented(bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	last := sr.Info(3)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	compressed[last.Offset] ^= 0xff // the last segment's codec magic

	resp, err := http.Post(srv.URL+"/query?agg=count&where="+url.QueryEscape("v >= 1500"),
		"application/x-spartan", bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "decoding segment 3:") {
		t.Fatalf("status %d, body %q; want 422 naming segment 3", resp.StatusCode, body)
	}
}

// TestQueryMalformedFooter feeds /query a body that carries the v2
// archive magic but a corrupted footer. The open must fail cleanly with
// a 400, emit no segment headers, and leave the segment counters
// untouched.
func TestQueryMalformedFooter(t *testing.T) {
	srv := testServer(t)
	compressed := monotonicArchive(t, srv)

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			body := mutate(append([]byte(nil), compressed...))
			resp, err := http.Post(srv.URL+"/query?agg=count", "application/x-spartan", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if resp.Header.Get("X-Spartan-Segments-Pruned") != "" ||
				resp.Header.Get("X-Spartan-Segments-Decoded") != "" {
				t.Error("segment headers present on a failed open")
			}
		})
	}

	// Truncated footer: chop the trailing footer-length word.
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-6] })
	// Flipped footer bytes: keep the length, garble the contents.
	corrupt("garbled", func(b []byte) []byte {
		for i := len(b) - 16; i < len(b)-8; i++ {
			b[i] ^= 0xff
		}
		return b
	})

	metrics := scrapeMetrics(t, srv)
	for _, label := range []string{"pruned", "decoded"} {
		needle := `spartan_query_segments_total{result="` + label + `"}`
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, needle) && !strings.HasSuffix(line, " 0") {
				t.Errorf("failed opens moved the segment counter: %s", line)
			}
		}
	}
}
