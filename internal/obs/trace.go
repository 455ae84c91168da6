// Package obs is SPARTAN's observability substrate: pipeline tracing
// (Trace/Span) and a Prometheus-compatible metrics registry. It is pure
// standard library, matching the repository's zero-dependency go.mod, and
// every piece is safe for concurrent use.
//
// Tracing mirrors the paper's §4.2 running-time accounting: each
// compression run produces one span per pipeline component
// (DependencyFinder, CaRTSelector+Builder, RowAggregator, outlier scan,
// encoder), annotated with the quantities the paper reports — rows
// scanned, CaRTs built, outliers found, bytes written.
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is a timed section of a pipeline run. Spans form a tree: the
// compression pipeline emits a root span with one child per component.
// A Span's setters must be called from the goroutine that started it;
// reading (Spans, WriteTree) is safe once the span has ended.
type Span struct {
	Name  string
	Start time.Time
	End   time.Time
	Depth int // 0 for root spans

	tr    *Trace
	attrs []Attr

	// Resource attribution (Trace.CaptureResources): the allocation
	// counters at Start, and the delta computed at Finish.
	resStart Resources
	res      Resources
	hasRes   bool
}

// SetAttr annotates the span. It returns the span for chaining and is a
// no-op on a nil span.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// Attrs returns the span's annotations in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Attr returns the value of the named annotation, or nil.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Duration is End−Start, or the elapsed time so far for an open span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.End.IsZero() {
		return time.Since(s.Start)
	}
	return s.End.Sub(s.Start)
}

// StartChild opens a child span. No-op (returns nil) on a nil span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s.Depth+1)
}

// Finish closes the span, stamps End (and, on a resource-capturing
// trace, the allocation delta), and fires the trace's OnSpanEnd
// observer. Safe on a nil span; closing twice keeps the first End.
func (s *Span) Finish() {
	if s == nil || !s.End.IsZero() {
		return
	}
	if s.hasRes {
		s.res = ReadResources().Sub(s.resStart)
	}
	s.End = time.Now()
	if s.tr != nil && s.tr.onEnd != nil {
		s.tr.onEnd(s)
	}
}

// Resources returns the span's attributed allocation deltas. ok is false
// when the trace did not capture resources (see Trace.CaptureResources).
// On an open span the delta covers start-to-now; once finished it is
// frozen at the Finish-time value.
func (s *Span) Resources() (res Resources, ok bool) {
	if s == nil || !s.hasRes {
		return Resources{}, false
	}
	if s.End.IsZero() {
		return ReadResources().Sub(s.resStart), true
	}
	return s.res, true
}

// Trace collects the spans of one pipeline run. The zero value is not
// usable; construct with NewTrace. All methods are safe on a nil *Trace,
// so callers can thread an optional trace without guarding every call.
type Trace struct {
	name       string
	onEnd      func(*Span)
	captureRes bool

	mu    sync.Mutex
	spans []*Span // in start order
}

// NewTrace returns an empty trace named name.
func NewTrace(name string) *Trace {
	return &Trace{name: name}
}

// Name returns the trace's name ("" for nil).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// OnSpanEnd registers fn to be called synchronously each time a span of
// this trace finishes — the hook that feeds span durations into a metrics
// Registry. Must be set before spans are started.
func (t *Trace) OnSpanEnd(fn func(*Span)) {
	if t == nil {
		return
	}
	t.onEnd = fn
}

// CaptureResources makes every span started afterwards record its
// allocation cost (bytes and objects allocated while open, via
// runtime/metrics — see Span.Resources). Like OnSpanEnd it must be set
// before spans are started. The per-span cost is two counter reads,
// well under a microsecond.
func (t *Trace) CaptureResources() {
	if t == nil {
		return
	}
	t.captureRes = true
}

// Start opens a new root-level span. Returns nil on a nil trace.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, 0)
}

func (t *Trace) start(name string, depth int) *Span {
	s := &Span{Name: name, Start: time.Now(), Depth: depth, tr: t}
	if t.captureRes {
		s.hasRes = true
		s.resStart = ReadResources()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return s
}

// Spans returns a snapshot of all spans in start order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Find returns the first span with the given name, or nil.
func (t *Trace) Find(name string) *Span {
	for _, s := range t.Spans() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// WriteTree renders the span tree as indented text, one span per line:
//
//	learn                               121ms  rows=25000 cols=10
//	  dependency_finder                  23ms  sample_rows=1571
//	  cart_selection                     98ms  carts_built=14
//
// Durations are rounded for readability; attributes follow in insertion
// order. No-op on a nil trace.
func (t *Trace) WriteTree(w io.Writer) {
	if t == nil {
		return
	}
	for _, s := range t.Spans() {
		indent := ""
		for i := 0; i < s.Depth; i++ {
			indent += "  "
		}
		line := fmt.Sprintf("%-36s %9v", indent+s.Name, roundDuration(s.Duration()))
		for _, a := range s.attrs {
			line += fmt.Sprintf("  %s=%v", a.Key, a.Value)
		}
		if res, ok := s.Resources(); ok {
			line += fmt.Sprintf("  alloc_bytes=%d  allocs=%d", res.AllocBytes, res.AllocObjects)
		}
		fmt.Fprintln(w, line)
	}
}

// roundDuration trims sub-microsecond noise so trees stay readable while
// remaining precise enough for the §4.2-style breakdowns.
func roundDuration(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}
