package cart

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// failAfter errors once n bytes have been written, covering the encoder's
// error-propagation branches.
type failAfter struct {
	n       int
	written int
}

var errBoom = errors.New("boom")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		allowed := f.n - f.written
		if allowed < 0 {
			allowed = 0
		}
		f.written += allowed
		return allowed, errBoom
	}
	f.written += len(p)
	return len(p), nil
}

func TestEncodePropagatesWriteErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tb := correlatedTable(rng, 300)
	cm := NewCostModel(tb)
	for _, target := range []int{1, 2} {
		tol := 2.0
		if tb.Attr(target).Kind != 0 { // categorical
			tol = 0
		}
		m, _, err := Build(context.Background(), NewSample(tb), target, []int{0}, tol, cm, Config{})
		if err != nil {
			t.Fatal(err)
		}
		outliers, err := m.ComputeOutliers(context.Background(), tb, tol, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Learn each stream's size, then sweep failure points inside it;
		// every write must surface the error.
		for name, encode := range map[string]func(w *failAfter) error{
			"Encode":         func(w *failAfter) error { return m.Encode(w) },
			"EncodeOutliers": func(w *failAfter) error { return EncodeOutliers(w, m.TargetKind, outliers) },
		} {
			probe := failAfter{n: 1 << 30}
			if err := encode(&probe); err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < probe.written; cut += 1 + probe.written/8 {
				if err := encode(&failAfter{n: cut}); err == nil {
					t.Errorf("target %d: %s succeeded with writer failing at %d/%d bytes",
						target, name, cut, probe.written)
				}
			}
		}
	}
}
