package core

import (
	"bytes"
	"testing"

	"repro/internal/cart"
	"repro/internal/datagen"
	"repro/internal/selector"
	"repro/internal/table"
)

func TestPipelineRoundTrip(t *testing.T) {
	tb := datagen.CDR(1200, 21)
	tol, err := table.UniformTolerances(tb, 0.01, 0).Resolve(tb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stats, err := Compress(&buf, tb, Options{Tolerances: tol})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(&buf)
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := table.MaxAbsDiff(tb, back)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d > tol[i].Value+1e-9 {
			t.Errorf("attribute %d error %g > %g", i, d, tol[i].Value)
		}
	}
	if stats.Ratio <= 0 || stats.Ratio >= 1 {
		t.Errorf("ratio = %g, want in (0,1) for CDR data", stats.Ratio)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SampleBytes != 50<<10 {
		t.Errorf("SampleBytes default = %d, want 50KB (paper §4.1)", o.SampleBytes)
	}
	if o.Theta != 2 {
		t.Errorf("Theta default = %g, want 2 (paper §4.1)", o.Theta)
	}
	if o.Seed != 1 {
		t.Errorf("Seed default = %d, want 1", o.Seed)
	}
}

func TestCollectSplitValues(t *testing.T) {
	m := &cart.Model{Target: 5, TargetKind: table.Numeric, Root: &cart.Node{
		SplitAttr: 0, SplitValue: 10,
		Left: &cart.Node{Leaf: true},
		Right: &cart.Node{
			SplitAttr: 0, SplitValue: 20,
			Left:  &cart.Node{SplitAttr: 2, SplitIsCat: true, SplitLeft: []int32{1}, Left: &cart.Node{Leaf: true}, Right: &cart.Node{Leaf: true}},
			Right: &cart.Node{Leaf: true},
		},
	}}
	plan := &selector.Result{Models: map[int]*cart.Model{5: m}}
	got := collectSplitValues(plan)
	if len(got[0]) != 2 {
		t.Errorf("attr 0 splits = %v, want two thresholds", got[0])
	}
	if len(got[2]) != 0 {
		t.Errorf("categorical split leaked into numeric split values: %v", got[2])
	}
}
