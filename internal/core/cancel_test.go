package core_test

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
)

// TestLearnPreCancelled asserts that an already-cancelled context stops
// the learn step before its first phase runs: the error wraps
// context.Canceled and names the phase, and the learn root carries
// cancelled=true.
func TestLearnPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	tb := datagen.CDR(500, 1)
	tr := obs.NewTrace("learn")
	_, err := core.Learn(ctx, tb, core.Options{Trace: tr})
	if err == nil {
		t.Fatal("Learn succeeded with a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), core.SpanDependencyFinder) {
		t.Errorf("error %q does not name the phase it died in", err)
	}
	if tr.Find(core.SpanDependencyFinder) != nil {
		t.Error("the dependency finder started despite a pre-cancelled context")
	}
	root := tr.Find(core.SpanLearn)
	if root == nil {
		t.Fatal("missing root span")
	}
	if v, _ := root.Attr("cancelled").(bool); !v {
		t.Error("root span not annotated cancelled=true")
	}
}

// TestLearnMidFlight cancels the context between the learn step's first
// and second phase (via a span observer, so the cancel is
// deterministically mid-step) and asserts the run aborts promptly, wraps
// context.Canceled, annotates the dying phase's span, and leaks no
// goroutines.
func TestLearnMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.NewTrace("learn")
	var cancelledAt time.Time
	tr.OnSpanEnd(func(sp *obs.Span) {
		if sp.Name == core.SpanDependencyFinder {
			cancelledAt = time.Now()
			cancel()
		}
	})

	tb := datagen.CDR(5000, 1)
	_, err := core.Learn(ctx, tb, core.Options{Trace: tr})
	returned := time.Now()
	if err == nil {
		t.Fatal("Learn succeeded despite mid-flight cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), core.SpanCaRTSelection) {
		t.Errorf("error %q does not name the phase it died in", err)
	}
	if d := returned.Sub(cancelledAt); d > 100*time.Millisecond {
		t.Errorf("learn took %v after cancel, want <100ms", d)
	}

	// The cancelled phase's span (and the root) must be annotated.
	if sp := tr.Find(core.SpanCaRTSelection); sp != nil {
		if v, _ := sp.Attr("cancelled").(bool); !v {
			t.Error("cancelled phase span not annotated cancelled=true")
		}
	}
	if root := tr.Find(core.SpanLearn); root != nil {
		if v, _ := root.Attr("cancelled").(bool); !v {
			t.Error("root span not annotated cancelled=true")
		}
	}

	// No goroutine may outlive the call: poll briefly for workers to
	// unwind, then compare against the baseline (with slack for the
	// runtime's own background goroutines).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestLearnApplyDeadline drives cancellation through a deadline instead
// of an explicit cancel, exercising the in-phase checkpoints: the tiny
// budget expires inside a running phase of Learn or Apply, not at a
// boundary.
func TestLearnApplyDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()

	tb := datagen.CDR(20000, 1)
	m, err := core.Learn(ctx, tb, core.Options{})
	if err == nil {
		_, err = m.Apply(ctx, io.Discard, tb)
	}
	if err == nil {
		t.Skip("machine fast enough to finish inside the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "spartan: ") {
		t.Errorf("error %q does not carry the pipeline prefix", err)
	}
}
