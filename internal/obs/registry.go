package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricType is the Prometheus exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// family is one named metric with a fixed label-name set; its children
// are the per-label-value time series.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	labelValues []string
	value       float64 // counter / gauge

	bucketCounts []uint64 // histogram: one per bucket bound
	sum          float64
	count        uint64
}

// register returns the family, creating it on first use. An invalid
// metric or label name (see validName), an "le" label (histograms add
// their own), and re-registering a name with a different type or
// different label names are programming errors and panic.
func (r *Registry) register(name, help string, typ metricType, buckets []float64, labels []string) *family {
	if !validName(name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if l == "le" || !validName(l, false) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || !slices.Equal(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type or labels", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]*child{},
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// validName reports whether s is a Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) or, without colon, a label name
// ([a-zA-Z_][a-zA-Z0-9_]*), and is not one of the names starting with
// "__" that Prometheus reserves.
func validName(s string, colon bool) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case c == ':' && colon:
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func (f *family) child(labelValues []string) *child {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	c, ok := f.children[key]
	if !ok {
		c = &child{
			labelValues:  append([]string(nil), labelValues...),
			bucketCounts: make([]uint64, len(f.buckets)),
		}
		f.children[key] = c
	}
	return c
}

// Counter is a monotonically increasing metric.
type Counter struct{ f *family }

// Counter registers (or fetches) a counter family. labelNames fixes the
// label schema; observations supply matching values.
func (r *Registry) Counter(name, help string, labelNames ...string) Counter {
	return Counter{r.register(name, help, typeCounter, nil, labelNames)}
}

// Inc adds 1.
func (c Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Add increases the counter by v (v must be ≥ 0).
func (c Counter) Add(v float64, labelValues ...string) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter %q decreased by %g", c.f.name, v))
	}
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	c.f.child(labelValues).value += v
}

// Gauge is a metric that can go up and down.
type Gauge struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) Gauge {
	return Gauge{r.register(name, help, typeGauge, nil, labelNames)}
}

// Set stores v.
func (g Gauge) Set(v float64, labelValues ...string) {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	g.f.child(labelValues).value = v
}

// Add adjusts the gauge by v (negative to decrease).
func (g Gauge) Add(v float64, labelValues ...string) {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	g.f.child(labelValues).value += v
}

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct{ f *family }

// Histogram registers (or fetches) a histogram family with the given
// ascending upper bounds (the implicit +Inf bucket is added on render).
// Nil buckets selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return Histogram{r.register(name, help, typeHistogram, buckets, labelNames)}
}

// Observe records one value.
func (h Histogram) Observe(v float64, labelValues ...string) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	c := h.f.child(labelValues)
	// Per-bucket (non-cumulative) counts; rendering cumulates them.
	for i, ub := range h.f.buckets {
		if v <= ub {
			c.bucketCounts[i]++
			break
		}
	}
	c.sum += v
	c.count++
}

// DefBuckets are the conventional latency buckets (seconds), matching the
// Prometheus client default.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// LinearBuckets returns count buckets starting at start, spaced by width.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count buckets starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// WritePrometheus renders every family in the text exposition format.
// Families appear in registration order; children are sorted by label
// values so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) {
	// The snapshot keeps the registry lock release deferred while the
	// (possibly slow) writes below run unlocked.
	for _, f := range r.snapshot() {
		f.write(w)
	}
}

// snapshot copies the family list under the read lock.
func (r *Registry) snapshot() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*family(nil), r.families...)
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.children) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := f.children[k]
		switch f.typ {
		case typeHistogram:
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += c.bucketCounts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.labelValues, "le", formatFloat(ub)), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, c.labelValues, "le", "+Inf"), c.count)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
				labelString(f.labels, c.labelValues, "", ""), formatFloat(c.sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name,
				labelString(f.labels, c.labelValues, "", ""), c.count)
		default:
			fmt.Fprintf(w, "%s%s %s\n", f.name,
				labelString(f.labels, c.labelValues, "", ""), formatFloat(c.value))
		}
	}
}

// labelString renders {a="x",b="y"} with an optional extra pair (used for
// le). Returns "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in the text exposition format — mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
}
