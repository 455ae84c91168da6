package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
)

// overloadServer builds a server with direct access to its internals so
// tests can saturate the semaphore deterministically instead of racing
// real in-flight requests.
func overloadServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(append([]Option{WithLogger(discardLogger())}, opts...)...)
	srv := httptest.NewServer(s.routes())
	t.Cleanup(srv.Close)
	return s, srv
}

// metricValue scrapes one sample line from the registry's exposition.
func metricValue(t *testing.T, reg *obs.Registry, prefix string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

func TestConcurrencyLimit429(t *testing.T) {
	reg := obs.NewRegistry()
	s, srv := overloadServer(t, WithMaxConcurrent(1), WithRegistry(reg))

	// Saturate the only slot, as a held in-flight pipeline would.
	s.pipelineSem <- struct{}{}
	defer func() { <-s.pipelineSem }()

	tb := datagen.CDR(100, 1)
	resp, err := http.Post(srv.URL+"/compress?tolerance=0.01", "application/octet-stream", tableBody(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if line := metricValue(t, reg, `spartan_http_rejected_total{reason="concurrency"}`); !strings.HasSuffix(line, " 1") {
		t.Errorf("rejection not counted: %q", line)
	}

	// /query is limited by the same semaphore; /decompress is not.
	resp2, err := http.Post(srv.URL+"/query?agg=count", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Errorf("query status = %d, want 429", resp2.StatusCode)
	}
	resp3, err := http.Post(srv.URL+"/decompress", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode == http.StatusTooManyRequests {
		t.Error("decompress rejected by the pipeline limiter; it should not be limited")
	}
}

// TestRequestTimeout503: a request whose timeout expires gets 503 and
// one timeout count, on /compress and on /query of a one-segment and a
// four-segment archive.
func TestRequestTimeout503(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := overloadServer(t, WithRequestTimeout(time.Nanosecond), WithRegistry(reg))

	tb := datagen.CDR(4000, 1)
	var single, arch bytes.Buffer
	if _, err := core.Compress(&single, tb, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.WriteTable(&arch, tb, core.Options{}, archive.SegmentOptions{SegmentRows: 1000}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		route string
		body  func() io.Reader
	}{
		{"/compress?tolerance=0.01", func() io.Reader { return tableBody(t, tb) }},
		{"/query?agg=count", func() io.Reader { return bytes.NewReader(single.Bytes()) }},
		{"/query?agg=count", func() io.Reader { return bytes.NewReader(arch.Bytes()) }},
	}
	for i, c := range cases {
		resp, err := http.Post(srv.URL+c.route, "application/octet-stream", c.body())
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("case %d %s: status = %d, want 503: %s", i, c.route, resp.StatusCode, body)
		}
		want := fmt.Sprintf(" %d", i+1)
		if line := metricValue(t, reg, `spartan_http_rejected_total{reason="timeout"}`); !strings.HasSuffix(line, want) {
			t.Errorf("case %d %s: timeout not counted: %q", i, c.route, line)
		}
	}
}

func TestBodyTooLarge413(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := overloadServer(t, WithMaxBodyBytes(64), WithRegistry(reg))

	// /compress reads a raw table; /decompress and /query read a
	// compressed archive, which must be valid so the decoder consumes
	// past the body limit instead of failing at the magic check.
	tb := datagen.CDR(500, 1)
	var compressed bytes.Buffer
	if _, err := core.Compress(&compressed, tb, core.Options{}); err != nil {
		t.Fatal(err)
	}
	bodies := map[string]func() io.Reader{
		"/compress":        func() io.Reader { return tableBody(t, tb) },
		"/decompress":      func() io.Reader { return bytes.NewReader(compressed.Bytes()) },
		"/query?agg=count": func() io.Reader { return bytes.NewReader(compressed.Bytes()) },
	}
	if tableBody(t, tb).Len() <= 64 || compressed.Len() <= 64 {
		t.Fatal("test bodies must exceed the 64-byte limit")
	}
	for route, body := range bodies {
		resp, err := http.Post(srv.URL+route, "application/octet-stream", body())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s status = %d, want 413", route, resp.StatusCode)
		}
	}
	if line := metricValue(t, reg, `spartan_http_rejected_total{reason="body_too_large"}`); !strings.HasSuffix(line, " 3") {
		t.Errorf("oversize bodies not counted: %q", line)
	}
}

func TestPipelinesInFlightGauge(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := overloadServer(t, WithRegistry(reg))

	tb := datagen.CDR(300, 1)
	resp, err := http.Post(srv.URL+"/compress?tolerance=0.01", "application/octet-stream", tableBody(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d", resp.StatusCode)
	}
	// The gauge must return to zero once the pipeline finishes.
	if line := metricValue(t, reg, "spartan_pipelines_in_flight"); !strings.HasSuffix(line, " 0") {
		t.Errorf("in-flight gauge did not return to zero: %q", line)
	}
}
