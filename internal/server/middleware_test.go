package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/table"
)

// newTestServer builds a bare Server (no mux) for middleware-level tests.
func newTestServer(log *slog.Logger) *Server {
	s := &Server{log: log, reg: obs.NewRegistry()}
	s.m = newMetrics(s.reg)
	return s
}

func TestRequestIDPropagation(t *testing.T) {
	s := newTestServer(discardLogger())
	var seen string
	h := s.instrument("/echo", func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	})

	// Caller-supplied ID is propagated to context and response header.
	req := httptest.NewRequest("GET", "/echo", nil)
	req.Header.Set(RequestIDHeader, "client-chosen-id")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "client-chosen-id" {
		t.Errorf("context request ID = %q, want client-chosen-id", seen)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "client-chosen-id" {
		t.Errorf("response header = %q, want client-chosen-id", got)
	}

	// Absent ID: one is minted (16 hex chars) and returned.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/echo", nil))
	got := rec.Header().Get(RequestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("minted request ID = %q, want 16 hex chars", got)
	}
	if seen != got {
		t.Errorf("context ID %q != header ID %q", seen, got)
	}
}

func TestPanicRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	h := s.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if body["error"] != "internal server error" || body["request_id"] == "" {
		t.Errorf("body = %v", body)
	}
	if !strings.Contains(logBuf.String(), "kaboom") {
		t.Error("panic value missing from log")
	}

	var metricsOut strings.Builder
	s.reg.WritePrometheus(&metricsOut)
	if !strings.Contains(metricsOut.String(), "spartan_http_panics_total 1") {
		t.Errorf("panic not counted:\n%s", metricsOut.String())
	}
	if !strings.Contains(metricsOut.String(), `spartan_http_requests_total{route="/boom",code="500"} 1`) {
		t.Errorf("500 not counted:\n%s", metricsOut.String())
	}
}

// TestPanicAfterWriteKeepsResponse checks the recovery path does not
// stomp a partially written response.
func TestPanicAfterWriteKeepsResponse(t *testing.T) {
	s := newTestServer(discardLogger())
	h := s.instrument("/late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, "partial") // recorder writes cannot fail
		panic("too late")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/late", nil))
	if rec.Code != http.StatusAccepted || rec.Body.String() != "partial" {
		t.Errorf("recovery rewrote committed response: %d %q", rec.Code, rec.Body.String())
	}
}

func TestAccessLogFields(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	h := s.instrument("/ok", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "hello") // recorder writes cannot fail
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok?x=1", nil))

	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, logBuf.String())
	}
	rid, _ := line["request_id"].(string)
	if line["route"] != "/ok" || line["method"] != "GET" ||
		line["status"] != float64(200) || line["bytes"] != float64(5) || rid == "" {
		t.Errorf("access log fields = %v", line)
	}
}

// metricFamilies is every family the server registers: newMetrics's
// and obs.NewSpanObserver's.
var metricFamilies = []string{
	"spartan_http_requests_total",
	"spartan_http_request_duration_seconds",
	"spartan_http_in_flight_requests",
	"spartan_http_panics_total",
	"spartan_http_response_bytes_total",
	"spartan_compress_ratio",
	"spartan_compress_predicted_attributes",
	"spartan_compress_tolerance",
	"spartan_compress_raw_bytes_total",
	"spartan_compress_compressed_bytes_total",
	"spartan_http_rejected_total",
	"spartan_pipelines_in_flight",
	"spartan_query_segments_total",
	"spartan_phase_duration_seconds",
	"spartan_phase_alloc_bytes",
	"spartan_phase_allocs",
}

// TestMetricsEndpoint drives every metric update site the routes reach
// once — /compress, /decompress, a pruned archive /query, /healthz and
// an oversized body — and asserts each answer's status, then that
// /metrics serves valid exposition text holding every family but the
// panic counter. The middleware recovers a panic (a label-arity mismatch
// at an update site, say) as a 500, so a stray spartan_http_panics_total
// sample fails the test too. The overload tests assert the other
// rejection reasons.
func TestMetricsEndpoint(t *testing.T) {
	const maxBody = 1 << 20
	srv := httptest.NewServer(New(WithLogger(discardLogger()), WithMaxBodyBytes(maxBody)))
	defer srv.Close()

	compressed := monotonicArchive(t, srv) // POST /compress?segment-rows=500
	for _, req := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{"POST", "/decompress", compressed, http.StatusOK},
		{"POST", "/query?agg=count&where=" + url.QueryEscape("v >= 1500"), compressed, http.StatusOK},
		{"GET", "/healthz", nil, http.StatusOK},
		{"POST", "/decompress", make([]byte, maxBody+1), http.StatusRequestEntityTooLarge},
	} {
		hreq, err := http.NewRequest(req.method, srv.URL+req.path, bytes.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatalf("%s %s: %v", req.method, req.path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // draining only; the asserts are on the status
		resp.Body.Close()
		if resp.StatusCode != req.want {
			t.Errorf("%s %s: status %d, want %d", req.method, req.path, resp.StatusCode, req.want)
		}
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	for _, name := range metricFamilies {
		present := strings.Contains(out, "# TYPE "+name+" ")
		if want := name != "spartan_http_panics_total"; present != want {
			t.Errorf("/metrics has family %s: %v, want %v", name, present, want)
		}
	}
	for _, want := range []string{
		`spartan_http_requests_total{route="/compress",code="200"} 1`,
		`spartan_http_requests_total{route="/decompress",code="413"} 1`,
		`spartan_http_request_duration_seconds_bucket{route="/query",le="+Inf"} 1`,
		"spartan_compress_ratio_count 1",
		`spartan_compress_tolerance_bucket{le="0"} 1`,
		`spartan_http_rejected_total{reason="body_too_large"} 1`,
		`spartan_query_segments_total{result="decoded"} 1`,
		`spartan_query_segments_total{result="pruned"} 3`,
		`spartan_phase_duration_seconds_count{trace="compress",phase="dependency_finder"} 1`,
		`spartan_phase_duration_seconds_count{trace="query",phase="aggregate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Minimal exposition-format validity: every non-comment line is
	// "name{labels} value".
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestTimingHeaders: every /compress answer carries the per-phase
// X-Spartan-Timing-* headers, summed over its segments, and Total is
// their sum. A segmented compress learns once, so its learn phases run
// once and its apply phases once per segment.
func TestTimingHeaders(t *testing.T) {
	tb := datagen.CDR(800, 5)
	for route, segments := range map[string]string{
		"/compress?tolerance=0.01":                  "1",
		"/compress?tolerance=0.01&segment-rows=500": "2",
	} {
		srv := httptest.NewServer(New(WithLogger(discardLogger())))
		var buf bytes.Buffer
		if err := table.WriteBinary(&buf, tb); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+route, "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // draining only; the asserts below are on the status
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", route, resp.StatusCode)
		}

		var total time.Duration
		for _, th := range timingHeaders {
			name := "X-Spartan-Timing-" + th.suffix
			v := resp.Header.Get(name)
			if v == "" {
				t.Errorf("%s: missing header %s", route, name)
				continue
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				t.Errorf("%s: %s = %q not a duration: %v", route, name, v, err)
				continue
			}
			if th.suffix == "Total" {
				if d != total {
					t.Errorf("%s: Total %v != sum of phases %v", route, d, total)
				}
			} else {
				total += d
			}
		}

		if got := resp.Header.Get("X-Spartan-Segments"); got != segments {
			t.Errorf("%s: X-Spartan-Segments = %q, want %s", route, got, segments)
		}
		metrics := scrapeMetrics(t, srv)
		for _, want := range []string{
			`spartan_phase_duration_seconds_count{trace="compress",phase="cart_selection"} 1`,
			`spartan_phase_duration_seconds_count{trace="compress",phase="encode"} ` + segments,
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("%s: /metrics missing %q", route, want)
			}
		}
		srv.Close()
	}
}
