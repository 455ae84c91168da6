package main

// The performance trajectory. `record` runs the benchmark in benchmark/
// on every workload BENCHMARK.json lists and keeps each run's result
// line in the next BENCH_<n>.json; `diff` compares two such snapshots
// against the bounds BENCHMARK.json fixes. docs/OBSERVABILITY.md
// describes the schema and the before/after protocol.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// schemaVersion 2 snapshots hold benchmark/ result lines. Version 1 was
// the in-process scenario suite that benchmark/ replaced; its snapshots
// (BENCH_1, 2 and 4) are history and are not compared.
const schemaVersion = 2

// specPath is read from the working directory, the repository root.
const specPath = "BENCHMARK.json"

// seeds are the untraced runs of every workload. The per-layer metrics
// come from one traced run on the first seed.
var seeds = []int64{1, 2, 3}

type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of OLD's median by which NEW's may be worse.
	// Per-layer metrics have none and are never gated.
	Bound float64 `json:"bound"`
}

type snapshot struct {
	SchemaVersion int            `json:"schema_version"`
	CreatedAt     string         `json:"created_at"` // RFC 3339, UTC
	Workloads     []workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Name   string     `json:"name"`
	Runs   []benchRun `json:"runs"`   // untraced, one per seed
	Traced benchRun   `json:"traced"` // the first seed with --trace 1
}

type benchRun struct {
	Seed   int64      `json:"seed"`
	Result resultLine `json:"result"`
}

// resultLine is the last line a benchmark run prints, kept verbatim,
// with the fields diff reads decoded.
type resultLine struct {
	raw       json.RawMessage
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct{ Value float64 }
}

func (l resultLine) MarshalJSON() ([]byte, error) { return l.raw, nil }

func (l *resultLine) UnmarshalJSON(line []byte) error {
	type fields resultLine // resultLine without its methods
	if err := json.Unmarshal(line, (*fields)(l)); err != nil || l.Metrics == nil {
		return errors.New("no result line")
	}
	l.raw = slices.Clone(line)
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runFunc runs the benchmark once and returns its standard output.
type runFunc func(workload string, seed int64, trace bool) ([]byte, error)

// benchmarkRun runs the command BENCHMARK.json declares at its run length.
func benchmarkRun(spec *benchSpec) runFunc {
	return func(workload string, seed int64, trace bool) ([]byte, error) {
		args := append(slices.Clone(spec.Command[1:]), "--workload", workload,
			"--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(spec.RunSeconds, 'g', -1, 64))
		if trace {
			args = append(args, "--trace", "1")
		}
		cmd := exec.Command(spec.Command[0], args...)
		cmd.Stderr = os.Stderr
		return cmd.Output()
	}
}

func recordMain(args []string) error {
	if len(args) != 0 {
		return errors.New("usage: spartanbench record (no arguments)")
	}
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if len(spec.Command) == 0 {
		return fmt.Errorf("%s: no command", specPath)
	}
	path, err := record(&spec, benchmarkRun(&spec), ".", os.Stderr)
	if err == nil {
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	return err
}

// record runs every workload on every seed, then once traced, and writes
// the result lines to the next BENCH_<n>.json under dir. It writes
// nothing unless every run ends with a result line.
func record(spec *benchSpec, runOne runFunc, dir string, progress io.Writer) (string, error) {
	snap := &snapshot{
		SchemaVersion: schemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Workloads:     make([]workloadRuns, len(spec.Workloads)),
	}
	// Seeds outermost, so a drift in machine speed during the recording
	// spreads over every workload; the traced pass comes last.
	for pass := 0; pass <= len(seeds); pass++ {
		seed, trace := seeds[pass%len(seeds)], pass == len(seeds)
		for i, wl := range spec.Workloads {
			r := benchRun{Seed: seed}
			out, err := runOne(wl.Name, seed, trace)
			if err == nil {
				out = bytes.TrimRight(out, "\n")
				err = r.Result.UnmarshalJSON(out[bytes.LastIndexByte(out, '\n')+1:])
			}
			if err != nil {
				return "", fmt.Errorf("%s seed %d trace %v: %w", wl.Name, seed, trace, err)
			}
			fmt.Fprintf(progress, "%-24s seed %d trace %-5v %d ops, %d failed, correct %v\n",
				wl.Name, seed, trace, r.Result.Attempted, r.Result.Failed, r.Result.Correct)
			snap.Workloads[i].Name = wl.Name
			if trace {
				snap.Workloads[i].Traced = r
			} else {
				snap.Workloads[i].Runs = append(snap.Workloads[i].Runs, r)
			}
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	path, err := nextPath(dir)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// nextPath returns one past the highest BENCH_<n>.json under dir,
// starting at 1.
func nextPath(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	next := 1
	for _, p := range paths {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "BENCH_%d.json", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}

// diffMain writes the per-metric comparison of snapshots OLD and NEW and
// returns exit code 2 if a row regressed: an end-to-end median worse
// than its bound, or a higher failed-op share. Workloads in one
// snapshot only are listed but not gated, since they have no baseline
// to regress from.
func diffMain(args []string, specFile string, w io.Writer) (int, error) {
	if len(args) != 2 {
		return 0, errors.New("usage: spartanbench diff OLD.json NEW.json")
	}
	var spec benchSpec
	if err := readJSON(specFile, &spec); err != nil {
		return 0, err
	}
	var snaps [2]snapshot
	for i, path := range args {
		if err := readJSON(path, &snaps[i]); err != nil {
			return 0, err
		}
		if v := snaps[i].SchemaVersion; v != schemaVersion {
			return 0, fmt.Errorf("%s: schema_version %d; diff reads only version %d, the benchmark/ runs `make bench-json` records (version 1 is the retired in-process harness)",
				path, v, schemaVersion)
		}
	}
	fmt.Fprintf(w, "bench diff: %s (old) vs %s (new), medians over seeds %v\n", args[0], args[1], seeds)
	oldBy, newBy := byName(&snaps[0]), byName(&snaps[1])

	regressions := 0
	var layers strings.Builder
	row := func(workload string, m metricSpec, oldV, newV float64, gated bool) {
		// From a zero baseline the change is ±Inf, or NaN (never a
		// regression) when both sides are zero.
		change := (newV - oldV) / math.Abs(oldV)
		if !gated {
			fmt.Fprintf(&layers, "%-24s %-32s %12.4g %12.4g %+8.1f%%\n", workload, m.Name, oldV, newV, change*100)
			return
		}
		worse, mark := change, ""
		if m.Better == "higher" {
			worse = -change
		}
		if worse > m.Bound {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-24s %-18s %12.4g %12.4g %+8.1f%% %5.0f%%%s\n",
			workload, m.Name, oldV, newV, change*100, m.Bound*100, mark)
	}
	fmt.Fprintf(w, "%-24s %-18s %12s %12s %9s %6s\n", "workload", "metric", "old", "new", "change", "bound")
	for _, cur := range snaps[1].Workloads {
		base := oldBy[cur.Name]
		if base == nil {
			fmt.Fprintf(w, "%-24s added (no baseline; not gated)\n", cur.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			oldV, okOld := median(base.Runs, m.Name)
			newV, okNew := median(cur.Runs, m.Name)
			if okOld && okNew {
				row(cur.Name, m, oldV, newV, true)
			}
		}
		// The failed-op share may not rise at all: its bound is 0.
		if oldF, newF := failedShare(base), failedShare(&cur); oldF > 0 || newF > 0 {
			row(cur.Name, metricSpec{Name: "failed_ops_share"}, oldF, newF, true)
		}
		for _, m := range spec.PerLayer {
			oldV, okOld := base.Traced.Result.Metrics[m.Name]
			newV, okNew := cur.Traced.Result.Metrics[m.Name]
			if okOld && okNew && (oldV.Value != 0 || newV.Value != 0) {
				row(cur.Name, m, oldV.Value, newV.Value, false)
			}
		}
	}
	for _, wl := range snaps[0].Workloads {
		if newBy[wl.Name] == nil {
			fmt.Fprintf(w, "%-24s removed (present only in old snapshot)\n", wl.Name)
		}
	}
	fmt.Fprintf(w, "\nper-layer metrics of the traced seed-%d runs (not gated; layers at 0 on both sides omitted):\n%s",
		seeds[0], layers.String())
	if regressions > 0 {
		fmt.Fprintf(w, "%d metric(s) regressed past their BENCHMARK.json bounds\n", regressions)
		return 2, nil
	}
	fmt.Fprintln(w, "no regressions past the BENCHMARK.json bounds")
	return 0, nil
}

func byName(s *snapshot) map[string]*workloadRuns {
	m := make(map[string]*workloadRuns, len(s.Workloads))
	for i := range s.Workloads {
		m[s.Workloads[i].Name] = &s.Workloads[i]
	}
	return m
}

// median is the median of a metric over the runs that report it.
func median(runs []benchRun, metric string) (float64, bool) {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Result.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	slices.Sort(vs)
	n := len(vs)
	if n == 0 {
		return 0, false
	}
	return (vs[(n-1)/2] + vs[n/2]) / 2, true
}

// failedShare is the share of a workload's ops that failed, over all its
// runs. A workload that attempted no op counts as failing them all.
func failedShare(w *workloadRuns) float64 {
	failed, attempted := 0, 0
	for _, r := range append(slices.Clone(w.Runs), w.Traced) {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
