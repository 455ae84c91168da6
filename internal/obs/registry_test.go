package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text format emitted for
// a counter, gauge and histogram, including label escaping and the
// cumulative +Inf bucket.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("http_requests_total", "Requests served.", "route", "code")
	c.Inc("/compress", "200")
	c.Inc("/compress", "200")
	c.Inc("/query", "400")
	g := r.Gauge("in_flight", "In-flight requests.")
	g.Set(3)
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 1}, "route")
	h.Observe(0.05, "/compress")
	h.Observe(0.5, "/compress")
	h.Observe(5, "/compress")

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{route="/compress",code="200"} 2
http_requests_total{route="/query",code="400"} 1
# HELP in_flight In-flight requests.
# TYPE in_flight gauge
in_flight 3
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{route="/compress",le="0.1"} 1
latency_seconds_bucket{route="/compress",le="1"} 2
latency_seconds_bucket{route="/compress",le="+Inf"} 3
latency_seconds_sum{route="/compress"} 5.55
latency_seconds_count{route="/compress"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h", "path").Inc(`a"b\c` + "\nd")
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `m{path="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped label missing:\n%s\nwant substring %s", b.String(), want)
	}
}

func TestReregisterReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h")
	b := r.Counter("dup_total", "h")
	a.Inc()
	b.Inc()
	var out strings.Builder
	r.WritePrometheus(&out)
	if !strings.Contains(out.String(), "dup_total 2") {
		t.Errorf("want shared series with value 2, got:\n%s", out.String())
	}
}

func TestReregisterTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on type mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "h")
	r.Gauge("m", "h")
}

// TestRegisterRejectsBadNames: every registration is checked against the
// Prometheus name grammar, the reserved names, and the label names the
// family was first registered with, so one test that builds the server
// checks every family it registers, sampled or not.
func TestRegisterRejectsBadNames(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(r *Registry)
	}{
		{"bad metric name", func(r *Registry) { r.Counter("bad-name_total", "h") }},
		{"leading digit", func(r *Registry) { r.Gauge("1m", "h") }},
		{"reserved metric name", func(r *Registry) { r.Counter("__m_total", "h") }},
		{"le label", func(r *Registry) { r.Histogram("h_seconds", "h", nil, "route", "le") }},
		{"reserved label", func(r *Registry) { r.Counter("m_total", "h", "__x") }},
		{"colon in label", func(r *Registry) { r.Counter("m_total", "h", "a:b") }},
		{"swapped label names", func(r *Registry) {
			r.Counter("m_total", "h", "a", "b")
			r.Counter("m_total", "h", "b", "a")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("registration did not panic")
				}
			}()
			tc.register(NewRegistry())
		})
	}
	// The grammar's edges are accepted.
	r := NewRegistry()
	r.Counter("ns:sub_m_total", "h", "_a", "B9")
	r.Counter("ns:sub_m_total", "h", "_a", "B9")
}

func TestLabelArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong label count")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "h", "a", "b").Inc("only-one")
}

// TestConcurrentUse hammers every metric kind from many goroutines; run
// with -race this doubles as the registry's concurrency-safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h", "worker")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", []float64{0.5}, "worker")
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.Inc(lbl)
				g.Add(1)
				h.Observe(float64(i%2), lbl)
				if i%100 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `c_total{worker="a"} 500`) {
		t.Errorf("lost counter increments:\n%s", out)
	}
	if !strings.Contains(out, "g 4000") {
		t.Errorf("lost gauge adds:\n%s", out)
	}
	if !strings.Contains(out, `h_seconds_count{worker="a"} 500`) {
		t.Errorf("lost histogram observations:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h").Add(7)
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 7") {
		t.Errorf("body missing metric:\n%s", rec.Body.String())
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0.1, 0.1, 3)
	if lin[0] != 0.1 || lin[2] != 0.30000000000000004 && lin[2] != 0.3 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExponentialBuckets(1, 2, 4)
	if exp[3] != 8 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
}
