package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("compress")
	root := tr.Start("compress")
	root.SetAttr("rows", 100)
	child := root.StartChild("dependency_finder")
	child.SetAttr("sample_rows", 10)
	child.Finish()
	child2 := root.StartChild("encode")
	child2.Finish()
	root.Finish()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Depth != 0 || spans[1].Depth != 1 || spans[2].Depth != 1 {
		t.Errorf("depths = %d,%d,%d", spans[0].Depth, spans[1].Depth, spans[2].Depth)
	}
	if got := spans[1].Attr("sample_rows"); got != 10 {
		t.Errorf("Attr(sample_rows) = %v", got)
	}
	for _, s := range spans {
		if s.End.Before(s.Start) {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if root.End.Before(child2.End) {
		t.Error("root ended before its last child")
	}

	var b strings.Builder
	tr.WriteTree(&b)
	out := b.String()
	for _, want := range []string{"compress", "  dependency_finder", "sample_rows=10", "  encode"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
}

func TestOnSpanEnd(t *testing.T) {
	tr := NewTrace("t")
	var ended []string
	tr.OnSpanEnd(func(s *Span) { ended = append(ended, s.Name) })
	s := tr.Start("a")
	c := s.StartChild("b")
	c.Finish()
	c.Finish() // double-finish must not re-fire
	s.Finish()
	if len(ended) != 2 || ended[0] != "b" || ended[1] != "a" {
		t.Errorf("OnSpanEnd order = %v, want [b a]", ended)
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	tr := NewTrace("t")
	s := tr.Start("a")
	s.Finish()
	end := s.End
	time.Sleep(time.Millisecond)
	s.Finish()
	if !s.End.Equal(end) {
		t.Error("second Finish moved End")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	sp.SetAttr("k", 1)
	sp.StartChild("y").Finish()
	sp.Finish()
	tr.OnSpanEnd(nil)
	tr.WriteTree(&strings.Builder{})
	if tr.Spans() != nil || tr.Find("x") != nil || tr.Name() != "" {
		t.Error("nil trace leaked state")
	}
	if sp.Duration() != 0 || sp.Attrs() != nil || sp.Attr("k") != nil {
		t.Error("nil span leaked state")
	}
}

func TestOpenSpanDuration(t *testing.T) {
	tr := NewTrace("t")
	s := tr.Start("a")
	defer s.Finish() // Duration is read below, while the span is still open
	time.Sleep(2 * time.Millisecond)
	if !s.End.IsZero() {
		t.Fatal("span closed before Finish")
	}
	if s.Duration() <= 0 {
		t.Error("open span duration not positive")
	}
	if tr.Find("a") != s {
		t.Error("Find did not return the span")
	}
}
