// Package server exposes SPARTAN compression, decompression and bounded
// approximate querying as an HTTP service — the "compression service in
// front of the warehouse" deployment the paper's introduction sketches
// (clients on low-bandwidth links download semantically compressed
// tables).
//
// Endpoints:
//
//	GET  /healthz                         liveness probe
//	GET  /metrics                         Prometheus text exposition
//	POST /compress?tolerance=F[&...]      table in (CSV or raw binary) → compressed archive
//	POST /decompress                      archive → table (CSV or raw binary by Accept)
//	POST /query?agg=A[&col=C]...          archive → JSON aggregate with bounds
//
// /query takes agg, col, where and groupby, and no tolerance: its bounds
// come from the tolerances the archive's model block records.
//
// Every route is instrumented: requests carry an X-Request-Id (minted if
// absent), emit a structured log/slog access line, and feed the metrics
// registry (see docs/OBSERVABILITY.md for the full metric and span
// schema). Compression statistics are returned in X-Spartan-* response
// headers, including the §4.2-style per-phase X-Spartan-Timing-* values.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// maxRequestBytes is the default request-body bound (tables and
// compressed streams); see WithMaxBodyBytes.
const maxRequestBytes = 1 << 30

// Server carries the service's dependencies: a structured logger and a
// metrics registry. Construct with New.
type Server struct {
	log *slog.Logger
	reg *obs.Registry
	m   metrics
	// spanObs bridges finished pipeline spans into the registry's generic
	// spartan_phase_* families (obs.NewSpanObserver).
	spanObs func(*obs.Span)

	maxBodyBytes   int64
	requestTimeout time.Duration
	// segmentRows, when positive, is /compress's default number of rows
	// per archive segment; requests can override it with ?segment-rows.
	// 0 writes one segment holding every row.
	segmentRows int
	// pipelineSem admits at most maxConcurrent pipeline-running requests
	// (/compress and /query); nil means unlimited. Excess requests are
	// rejected with 429 rather than queued, so a saturated service sheds
	// load instead of stacking up memory-hungry pipelines.
	pipelineSem chan struct{}
}

// metrics is the full metric set; names are documented in
// docs/OBSERVABILITY.md.
type metrics struct {
	requests      obs.Counter   // spartan_http_requests_total{route,code}
	latency       obs.Histogram // spartan_http_request_duration_seconds{route}
	inFlight      obs.Gauge     // spartan_http_in_flight_requests
	panics        obs.Counter   // spartan_http_panics_total
	responseBytes obs.Counter   // spartan_http_response_bytes_total{route}

	rejected  obs.Counter // spartan_http_rejected_total{reason}
	pipelines obs.Gauge   // spartan_pipelines_in_flight

	ratio          obs.Histogram // spartan_compress_ratio
	predictedAttrs obs.Histogram // spartan_compress_predicted_attributes
	tolerance      obs.Histogram // spartan_compress_tolerance
	rawBytes       obs.Counter   // spartan_compress_raw_bytes_total
	outBytes       obs.Counter   // spartan_compress_compressed_bytes_total

	querySegments obs.Counter // spartan_query_segments_total{result}
}

// Option customizes the service.
type Option func(*Server)

// WithLogger sets the structured logger for access logs and panics
// (default slog.Default()).
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.log = l } }

// WithRegistry sets the metrics registry (default a fresh one). Pass a
// shared registry to also expose the metrics on a separate debug
// listener.
func WithRegistry(r *obs.Registry) Option { return func(s *Server) { s.reg = r } }

// WithMaxConcurrent bounds how many pipeline-running requests (/compress
// and /query) may execute at once; excess requests get 429 with a
// Retry-After hint. n <= 0 (the default) means unlimited.
func WithMaxConcurrent(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.pipelineSem = make(chan struct{}, n)
		} else {
			s.pipelineSem = nil
		}
	}
}

// WithRequestTimeout bounds how long a pipeline-running request may take;
// a compression that overruns is cancelled and answered with 503.
// d <= 0 (the default) means no timeout beyond the client's own.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.requestTimeout = d }
}

// WithSegmentRows makes /compress write archives with n rows per segment
// by default; requests override with ?segment-rows. n <= 0 (the
// default) writes one segment.
func WithSegmentRows(n int) Option {
	return func(s *Server) { s.segmentRows = n }
}

// WithMaxBodyBytes bounds request bodies; larger uploads are rejected
// with 413 (default 1 GiB).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBodyBytes = n
		}
	}
}

// New returns the service's HTTP handler.
func New(opts ...Option) http.Handler {
	return newServer(opts...).routes()
}

// newServer builds the Server without its mux, so in-package tests can
// reach the semaphore and options directly.
func newServer(opts ...Option) *Server {
	s := &Server{log: slog.Default(), reg: obs.NewRegistry(), maxBodyBytes: maxRequestBytes}
	for _, o := range opts {
		o(s)
	}
	s.m = newMetrics(s.reg)
	s.spanObs = obs.NewSpanObserver(s.reg)
	return s
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", handleHealth))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.reg.Handler().ServeHTTP))
	mux.Handle("POST /compress", s.instrument("/compress", s.limit(s.handleCompress)))
	mux.Handle("POST /decompress", s.instrument("/decompress", s.handleDecompress))
	mux.Handle("POST /query", s.instrument("/query", s.limit(s.handleQuery)))
	return mux
}

// limit is the overload-protection middleware for pipeline-running
// routes: it enforces the concurrency cap (429 + Retry-After when
// saturated), starts the per-request timeout, and maintains the
// in-flight-pipelines gauge.
func (s *Server) limit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.pipelineSem != nil {
			select {
			case s.pipelineSem <- struct{}{}:
				defer func() { <-s.pipelineSem }()
			default:
				s.m.rejected.Inc("concurrency")
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests,
					fmt.Errorf("server at capacity (%d pipelines in flight)", cap(s.pipelineSem)))
				return
			}
		}
		s.m.pipelines.Add(1)
		defer s.m.pipelines.Add(-1)
		if s.requestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		requests: reg.Counter("spartan_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: reg.Histogram("spartan_http_request_duration_seconds",
			"HTTP request latency in seconds, by route.", obs.DefBuckets, "route"),
		inFlight: reg.Gauge("spartan_http_in_flight_requests",
			"Requests currently being served."),
		panics: reg.Counter("spartan_http_panics_total",
			"Handler panics recovered by the middleware."),
		responseBytes: reg.Counter("spartan_http_response_bytes_total",
			"Response body bytes written, by route.", "route"),
		ratio: reg.Histogram("spartan_compress_ratio",
			"Compression ratio (compressed/raw, smaller is better) per /compress call.",
			obs.LinearBuckets(0.05, 0.05, 19)),
		predictedAttrs: reg.Histogram("spartan_compress_predicted_attributes",
			"CaRT-predicted attribute count per /compress call.",
			obs.LinearBuckets(1, 1, 32)),
		tolerance: reg.Histogram("spartan_compress_tolerance",
			"Numeric error tolerance requested per /compress call (fraction of range).",
			[]float64{0, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}),
		rawBytes: reg.Counter("spartan_compress_raw_bytes_total",
			"Raw (uncompressed) bytes accepted by /compress."),
		outBytes: reg.Counter("spartan_compress_compressed_bytes_total",
			"Compressed bytes produced by /compress."),
		rejected: reg.Counter("spartan_http_rejected_total",
			"Requests rejected by overload protection, by reason (concurrency, timeout, body_too_large).", "reason"),
		pipelines: reg.Gauge("spartan_pipelines_in_flight",
			"Compression/query pipelines currently executing."),
		querySegments: reg.Counter("spartan_query_segments_total",
			"Archive segments seen by /query, by result (decoded, pruned).", "result"),
	}
}

func handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// readTableBody parses the request body as CSV (text/csv) or the raw
// binary table format (anything else).
func (s *Server) readTableBody(r *http.Request) (*table.Table, error) {
	body := http.MaxBytesReader(nil, r.Body, s.maxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == "text/csv" {
		return table.ReadCSV(body, nil)
	}
	return table.ReadBinary(body)
}

// bodyError answers a failed request-body read: 413 when the configured
// body limit truncated it, 400 for everything else.
func (s *Server) bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.m.rejected.Inc("body_too_large")
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

// tolerancesFromQuery builds the tolerance vector from the request
// parameters tolerance (numeric fraction of range) and cat-tolerance
// (categorical probability). The raw numeric fraction is also returned
// for the tolerance-distribution metric.
func tolerancesFromQuery(r *http.Request, t *table.Table) (table.Tolerances, float64, error) {
	var frac [2]float64
	for i, name := range []string{"tolerance", "cat-tolerance"} {
		if v := r.URL.Query().Get(name); v != "" {
			var err error
			if frac[i], err = strconv.ParseFloat(v, 64); err != nil {
				return nil, 0, fmt.Errorf("bad %s: %w", name, err)
			}
		}
	}
	return table.UniformTolerances(t, frac[0], frac[1]), frac[0], nil
}

// timingHeaders maps the X-Spartan-Timing-* header suffixes to the
// §4.2 phases, in pipeline order.
var timingHeaders = []struct {
	suffix string
	get    func(core.Timings) time.Duration
}{
	{"Dependency-Finder", func(t core.Timings) time.Duration { return t.DependencyFinder }},
	{"Cart-Selection", func(t core.Timings) time.Duration { return t.CaRTSelection }},
	{"Row-Aggregation", func(t core.Timings) time.Duration { return t.RowAggregation }},
	{"Outlier-Scan", func(t core.Timings) time.Duration { return t.OutlierScan }},
	{"Encode", func(t core.Timings) time.Duration { return t.Encode }},
	{"Total", core.Timings.Total},
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	t, err := s.readTableBody(r)
	if err != nil {
		s.bodyError(w, err)
		return
	}
	tol, numericTol, err := tolerancesFromQuery(r, t)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	// Pipeline trace: as each phase finishes, its span feeds the
	// spartan_phase_* bridge families (with allocation attribution,
	// hence CaptureResources).
	tr := obs.NewTrace("compress")
	tr.CaptureResources()
	tr.OnSpanEnd(s.spanObs)

	opts := core.Options{Tolerances: tol, Trace: tr}
	switch sel := r.URL.Query().Get("selection"); sel {
	case "", "wmis-parents":
	case "wmis-markov":
		opts.Selection = core.SelectWMISMarkov
	case "greedy":
		opts.Selection = core.SelectGreedy
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown selection %q", sel))
		return
	}

	segRows := s.segmentRows
	if v := r.URL.Query().Get("segment-rows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad segment-rows %q", v))
			return
		}
		segRows = n
	}

	// Compress into memory first so errors can still become proper HTTP
	// statuses and stats can travel as headers. The buffer is sized off
	// the raw table: SPARTAN rarely exceeds a quarter of the input, so
	// RawBytes/4 avoids the append-regrow churn of an unsized buffer
	// without holding raw-sized memory per request.
	var buf bytes.Buffer
	if hint := t.RawSizeBytes() / 4; hint > 0 {
		buf.Grow(min(hint, 64<<20))
	}
	// The models are learned once, then applied to the segments
	// concurrently; the response is a seekable archive with zone maps for
	// pruned /query calls.
	astats, err := archive.WriteTableContext(r.Context(), &buf, t, opts,
		archive.SegmentOptions{SegmentRows: segRows})
	if !s.answerErr(w, err) {
		return
	}
	s.m.ratio.Observe(astats.Ratio)
	s.m.tolerance.Observe(numericTol)
	s.m.rawBytes.Add(float64(astats.RawBytes))
	s.m.outBytes.Add(float64(astats.CompressedBytes))
	h := w.Header()
	h.Set("X-Spartan-Raw-Bytes", strconv.Itoa(astats.RawBytes))
	h.Set("X-Spartan-Compressed-Bytes", strconv.Itoa(astats.CompressedBytes))
	h.Set("X-Spartan-Ratio", strconv.FormatFloat(astats.Ratio, 'f', 4, 64))
	h.Set("X-Spartan-Segments", strconv.Itoa(astats.Segments))
	s.m.predictedAttrs.Observe(float64(len(astats.Predicted)))
	h.Set("X-Spartan-Predicted", strings.Join(astats.Predicted, ","))
	// Phase times summed over the segments, the learn phases counted once.
	for _, th := range timingHeaders {
		h.Set("X-Spartan-Timing-"+th.suffix, th.get(astats.Timings).String())
	}
	h.Set("Content-Type", "application/x-spartan")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // client went away
	}
}

// answerErr maps a /compress or /query pipeline error to its HTTP
// response and reports whether the handler may proceed.
func (s *Server) answerErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request timeout stopped the pipeline mid-flight.
		s.m.rejected.Inc("timeout")
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to answer.
	default:
		httpError(w, http.StatusUnprocessableEntity, err)
	}
	return false
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(nil, r.Body, s.maxBodyBytes)
	t, err := codec.Decode(body)
	if err != nil {
		s.bodyError(w, err)
		return
	}
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/csv") {
		w.Header().Set("Content-Type", "text/csv")
		_ = table.WriteCSV(w, t)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = table.WriteBinary(w, t)
}

// queryResponse is the JSON shape of /query results.
type queryResponse struct {
	Agg    string          `json:"agg"`
	Column string          `json:"column,omitempty"`
	Groups []queryGroupDTO `json:"groups"`
}

type queryGroupDTO struct {
	Key       string   `json:"key,omitempty"`
	Value     *float64 `json:"value"` // null when no rows matched
	Lo        *float64 `json:"lo"`
	Hi        *float64 `json:"hi"`
	Rows      int      `json:"rows"`
	Uncertain int      `json:"uncertain"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// /query gets the same span treatment as /compress: a trace with one
	// child per stage, bridged into the spartan_phase_* families, with the
	// stage durations echoed as X-Spartan-Timing-* headers on success.
	tr := obs.NewTrace("query")
	tr.CaptureResources()
	tr.OnSpanEnd(s.spanObs)
	root := tr.Start("query")
	defer root.Finish()

	q := r.URL.Query()
	var agg query.AggKind
	switch strings.ToLower(q.Get("agg")) {
	case "", "count":
		agg = query.Count
	case "sum":
		agg = query.Sum
	case "avg":
		agg = query.Avg
	case "min":
		agg = query.Min
	case "max":
		agg = query.Max
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown agg %q", q.Get("agg")))
		return
	}
	spec := query.Query{Agg: agg, Column: q.Get("col"), GroupBy: q.Get("groupby")}

	// The body is buffered so it can be opened as a seekable archive: its
	// footer answers first, and zone maps refute segments before any
	// decoding.
	body := http.MaxBytesReader(nil, r.Body, s.maxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		s.bodyError(w, err)
		return
	}

	// The footer opens under "open"; the query then times its own prune,
	// decode and aggregate spans under root.
	openSpan := root.StartChild("open")
	sr, err := archive.OpenSegmented(bytes.NewReader(data))
	openSpan.Finish()
	if err != nil {
		s.bodyError(w, err)
		return
	}
	if spec.Where, err = query.ParsePredicate(q.Get("where"), sr.Schema()); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The intervals come from the tolerances the archive records.
	res, qs, err := sr.QuerySpan(r.Context(), root, spec)
	if !s.answerErr(w, err) {
		return
	}
	s.m.querySegments.Add(float64(qs.Decoded), "decoded")
	s.m.querySegments.Add(float64(qs.Pruned), "pruned")
	w.Header().Set("X-Spartan-Segments-Decoded", strconv.Itoa(qs.Decoded))
	w.Header().Set("X-Spartan-Segments-Pruned", strconv.Itoa(qs.Pruned))
	w.Header().Set("X-Spartan-Columns-Decoded", strconv.Itoa(qs.Columns))
	resp := queryResponse{Agg: agg.String(), Column: spec.Column}
	for _, g := range res.Groups {
		dto := queryGroupDTO{Key: g.Key, Rows: g.Rows, Uncertain: g.UncertainRows}
		if !math.IsNaN(g.Value) {
			v, lo, hi := g.Value, g.Lo, g.Hi
			dto.Value, dto.Lo, dto.Hi = &v, &lo, &hi
		}
		resp.Groups = append(resp.Groups, dto)
	}
	// Close the root before stamping headers so Total is frozen (Finish is
	// idempotent; the deferred call becomes a no-op).
	root.Finish()
	h := w.Header()
	h.Set("X-Spartan-Timing-Decode", (openSpan.Duration() + tr.Find("decode").Duration()).String())
	h.Set("X-Spartan-Timing-Aggregate", tr.Find("aggregate").Duration().String())
	h.Set("X-Spartan-Timing-Total", root.Duration().String())
	h.Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// discardLogger is a logger for tests and callers that want silence.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
