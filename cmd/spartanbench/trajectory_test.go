package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// repoSpec is the repository's own BENCHMARK.json: synthetic snapshots
// are gated by the real workloads and bounds.
const repoSpec = "../../BENCHMARK.json"

type fakeResult struct {
	Correct   bool                          `json:"correct"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Metrics   map[string]map[string]float64 `json:"metrics"`
}

// fakeRun stands in for benchmark/run.sh. Every run attempts 100 ops and
// reports every metric at 100, so relative changes read directly;
// adjust may change a result before it is printed as the last line.
func fakeRun(spec *benchSpec, adjust func(workload string, r *fakeResult)) runFunc {
	return func(workload string, seed int64, trace bool) ([]byte, error) {
		r := fakeResult{Correct: true, Attempted: 100, Metrics: map[string]map[string]float64{}}
		for _, m := range map[bool][]metricSpec{false: spec.EndToEnd, true: spec.PerLayer}[trace] {
			r.Metrics[m.Name] = map[string]float64{"value": 100}
		}
		if adjust != nil {
			adjust(workload, &r)
		}
		line, err := json.Marshal(r)
		return fmt.Appendf(nil, "probe: 3 units, scale 1\n%s\n", line), err
	}
}

func scale(metric string, by float64) func(string, *fakeResult) {
	return func(_ string, r *fakeResult) {
		if m, ok := r.Metrics[metric]; ok {
			m["value"] *= by
		}
	}
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(repoSpec, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

func recordFake(t *testing.T, spec *benchSpec, dir string, adjust func(string, *fakeResult)) string {
	t.Helper()
	path, err := record(spec, fakeRun(spec, adjust), dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func diffFiles(t *testing.T, oldPath, newPath string) (int, string) {
	t.Helper()
	var out strings.Builder
	code, err := diffMain([]string{oldPath, newPath}, repoSpec, &out)
	if err != nil {
		t.Fatal(err)
	}
	return code, out.String()
}

func TestDiffIdenticalSnapshots(t *testing.T) {
	spec := loadSpec(t)
	path := recordFake(t, spec, t.TempDir(), nil)
	code, out := diffFiles(t, path, path)
	if code != 0 || !strings.Contains(out, "no regressions") {
		t.Fatalf("identical snapshots: exit %d\n%s", code, out)
	}
	gated, layers := 0, 0
	for _, line := range strings.Split(out, "\n") {
		switch strings.Count(line, "%") {
		case 2: // change and bound
			gated++
		case 1:
			layers++
		}
	}
	if gated != len(spec.Workloads)*len(spec.EndToEnd) || layers != len(spec.Workloads)*len(spec.PerLayer) {
		t.Errorf("%d gated and %d per-layer rows, want every metric of every workload\n%s", gated, layers, out)
	}
}

// TestDiffDirections: each end-to-end metric is gated by its own bound in
// its own better direction, and the failed-op share may not rise.
func TestDiffDirections(t *testing.T) {
	spec := loadSpec(t)
	cases := []struct {
		name   string
		adjust func(string, *fakeResult)
		want   int
	}{
		{"latency_p50_ms worse just past its bound", scale("latency_p50_ms", 1.2401), 2},
		{"latency_p50_ms worse just inside its bound", scale("latency_p50_ms", 1.2399), 0},
		{"latency_p50_ms better", scale("latency_p50_ms", 0.5), 0},
		{"rows_per_s drop", scale("rows_per_s", 0.79), 2},
		{"rows_per_s rise", scale("rows_per_s", 1.5), 0},
		{"higher failed-op share", func(_ string, r *fakeResult) { r.Failed = 1 }, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := recordFake(t, spec, dir, nil)
			code, out := diffFiles(t, base, recordFake(t, spec, dir, tc.adjust))
			if code != tc.want || strings.Contains(out, "REGRESSION") != (tc.want == 2) {
				t.Fatalf("exit %d, want %d\n%s", code, tc.want, out)
			}
		})
	}
}

// TestPerfDiffEndToEnd: the performance workflow as run from a checkout.
// Records land in the same directory under consecutive BENCH_<n>.json
// names; two honest records pass the gate, and a record whose latency has
// slowed past its bound fails it with exit 2.
func TestPerfDiffEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	old := recordFake(t, spec, dir, nil)
	cur := recordFake(t, spec, dir, nil)
	if old != filepath.Join(dir, "BENCH_1.json") || cur != filepath.Join(dir, "BENCH_2.json") {
		t.Fatalf("records wrote %s and %s, want BENCH_1.json and BENCH_2.json", old, cur)
	}
	if code, out := diffFiles(t, old, cur); code != 0 {
		t.Fatalf("diff of two honest records exited %d, want 0\n%s", code, out)
	}
	slow := recordFake(t, spec, dir, scale("latency_p50_ms", 3.5))
	if code, out := diffFiles(t, old, slow); code != 2 || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("diff against a slowed record exited %d, want 2\n%s", code, out)
	}
}

// TestDiffNewAndRemovedWorkloads: workloads without a counterpart are
// reported but never gated.
func TestDiffNewAndRemovedWorkloads(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	rename := func(name string) *benchSpec {
		s := *spec
		s.Workloads = slices.Clone(spec.Workloads)
		s.Workloads[0].Name = name
		return &s
	}
	old := recordFake(t, rename("retired_workload"), dir, nil)
	cur := recordFake(t, rename("future_workload"), dir, func(w string, r *fakeResult) {
		if w == "future_workload" {
			r.Failed = r.Attempted
		}
	})
	code, out := diffFiles(t, old, cur)
	if code != 0 || !strings.Contains(out, "retired_workload         removed") ||
		!strings.Contains(out, "future_workload          added") || strings.Contains(out, "future_workload          setup_s") {
		t.Fatalf("exit %d; want the unmatched workloads listed, not gated\n%s", code, out)
	}
}

// TestDiffRefusesSchemaV1: a snapshot of the retired in-process harness
// is refused, not mis-diffed against benchmark/ results.
func TestDiffRefusesSchemaV1(t *testing.T) {
	v2 := recordFake(t, loadSpec(t), t.TempDir(), nil)
	_, err := diffMain([]string{"../../BENCH_4.json", v2}, repoSpec, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "schema_version 1") {
		t.Fatalf("diff BENCH_4.json = %v, want a schema_version 1 refusal", err)
	}
}

// TestRecordRoundTrip: record runs every declared workload on every seed
// plus one traced run, and keeps each result line intact.
func TestRecordRoundTrip(t *testing.T) {
	spec := loadSpec(t)
	path := recordFake(t, spec, t.TempDir(), nil)
	var s snapshot
	if err := readJSON(path, &s); err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_1.json" || s.SchemaVersion != schemaVersion || len(s.Workloads) != len(spec.Workloads) {
		t.Fatalf("%s: schema %d, %d workloads", path, s.SchemaVersion, len(s.Workloads))
	}
	run := fakeRun(spec, nil)
	for i, w := range s.Workloads {
		if w.Name != spec.Workloads[i].Name || len(w.Runs) != len(seeds) || w.Traced.Seed != seeds[0] {
			t.Fatalf("workload %d: %s with %d runs, traced seed %d", i, w.Name, len(w.Runs), w.Traced.Seed)
		}
		for j, r := range append(w.Runs, w.Traced) {
			out, _ := run(w.Name, r.Seed, j == len(w.Runs))
			var got bytes.Buffer
			if err := json.Compact(&got, r.Result.raw); err != nil || !bytes.HasSuffix(out, append(got.Bytes(), '\n')) {
				t.Errorf("%s run %d: stored %s, run printed %s", w.Name, j, got.Bytes(), out)
			}
		}
	}
}

// TestRecordNeedsResultLine: a run that ends without a result line fails
// the recording, and no snapshot is written.
func TestRecordNeedsResultLine(t *testing.T) {
	spec := loadSpec(t)
	for name, out := range map[string]string{
		"empty":         "",
		"report only":   "probe: 3 units, scale 1\nops: 12 attempted, 0 failed\n",
		"json not last": "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\ndone\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(string, int64, bool) ([]byte, error) { return []byte(out), nil }
			if _, err := record(spec, run, dir, io.Discard); err == nil || !strings.Contains(err.Error(), "no result line") {
				t.Fatalf("record = %v, want a missing-result-line error", err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("record left %d files behind", len(entries))
			}
		})
	}
}

// TestNextPath: auto-numbering starts at 1, skips past the highest
// existing snapshot, and ignores non-matching files.
func TestNextPath(t *testing.T) {
	dir := t.TempDir()
	if p, err := nextPath(dir); err != nil || p != filepath.Join(dir, "BENCH_1.json") {
		t.Errorf("empty dir: nextPath = %q, %v", p, err)
	}
	for _, name := range []string{"BENCH_1.json", "BENCH_7.json", "BENCH_x.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := nextPath(dir); err != nil || p != filepath.Join(dir, "BENCH_8.json") {
		t.Errorf("nextPath = %q, %v; want BENCH_8.json", p, err)
	}
}
