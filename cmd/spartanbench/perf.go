package main

// The performance-trajectory subcommands: `perf` records one
// BENCH_<n>.json snapshot (ROADMAP item 3's "recorded perf trajectory"),
// `diff` compares two snapshots and gates on regressions the way the
// SARIF diff gates on new findings. docs/OBSERVABILITY.md documents the
// schema and the engine-PR before/after workflow.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// perfMain runs the bench harness and writes a snapshot. Returns the
// path written so tests can inspect it.
func perfMain(args []string, progress *os.File) (string, error) {
	fs := flag.NewFlagSet("perf", flag.ExitOnError)
	rows := fs.Int("rows", 4000, "dataset rows per scenario")
	seed := fs.Int64("seed", 1, "generator seed")
	reps := fs.Int("reps", 3, "measured iterations per scenario")
	warmup := fs.Int("warmup", 1, "untimed warmup iterations per scenario")
	scenariosFlag := fs.String("scenarios", "", "comma-separated scenario filter (exact or prefix, e.g. compress or micro/cart_build); empty = all")
	out := fs.String("out", "", "snapshot path (default: next BENCH_<n>.json under -dir)")
	dir := fs.String("dir", ".", "directory for auto-numbered BENCH_<n>.json snapshots")
	profile := fs.String("profile", "", "directory for per-scenario cpu/heap pprof profiles")
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	cfg := bench.Config{
		Rows:       *rows,
		Seed:       *seed,
		Reps:       *reps,
		Warmup:     *warmup,
		ProfileDir: *profile,
		Progress:   progress,
	}
	if *warmup == 0 {
		cfg.Warmup = -1 // flag 0 means none; Config 0 means default
	}
	if *scenariosFlag != "" {
		cfg.Scenarios = strings.Split(*scenariosFlag, ",")
	}
	// Test-only hook: an injected artificial slowdown, so the regression
	// gate can be exercised end to end (see bench.Config.Handicap).
	if h := os.Getenv("SPARTAN_BENCH_HANDICAP"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil {
			return "", fmt.Errorf("SPARTAN_BENCH_HANDICAP: %w", err)
		}
		cfg.Handicap = d
		fmt.Fprintf(os.Stderr, "spartanbench: WARNING: artificial handicap %v per op (test hook); do not record this snapshot as a trajectory point\n", d)
	}

	snap, err := bench.Run(cfg)
	if err != nil {
		return "", err
	}
	path := *out
	if path == "" {
		if path, err = bench.NextPath(*dir); err != nil {
			return "", err
		}
	}
	if err := snap.WriteFile(path); err != nil {
		return "", err
	}
	if progress != nil {
		printPhases(progress, snap)
		fmt.Fprintf(progress, "env: %s\n", snap.Env)
		fmt.Fprintf(progress, "wrote %s\n", path)
	}
	return path, nil
}

// printPhases renders the compress scenario's §4.2 phase attribution —
// the same tree `-trace` prints, now in recorded form.
func printPhases(w *os.File, snap *bench.Snapshot) {
	for _, sc := range snap.Scenarios {
		if len(sc.PhaseNs) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s phases:\n", sc.Name)
		phases := make([]string, 0, len(sc.PhaseNs))
		for name := range sc.PhaseNs {
			phases = append(phases, name)
		}
		sort.Slice(phases, func(i, j int) bool { return sc.PhaseNs[phases[i]] > sc.PhaseNs[phases[j]] })
		for _, name := range phases {
			line := fmt.Sprintf("  %-24s %10v/op", name, time.Duration(sc.PhaseNs[name]).Round(time.Microsecond))
			if ab, ok := sc.PhaseAllocBytes[name]; ok {
				line += fmt.Sprintf("  %10.0f B/op", ab)
			}
			fmt.Fprintln(w, line)
		}
	}
}

// diffMain compares two snapshots; exit code 2 signals regressions past
// the threshold (matching spartanvet's gating text mode), 0 means clean.
func diffMain(args []string) (exit int, err error) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", bench.DefaultThreshold,
		"fractional worsening that fails the diff (0.4 = 40% worse)")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("usage: spartanbench diff [-threshold F] OLD.json NEW.json")
	}
	oldSnap, err := bench.ReadSnapshot(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	newSnap, err := bench.ReadSnapshot(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	rep := bench.Diff(oldSnap, newSnap, bench.DiffOptions{Threshold: *threshold})
	fmt.Printf("bench diff: %s (old) vs %s (new)\n", fs.Arg(0), fs.Arg(1))
	rep.Write(os.Stdout)
	if rep.Regressions() > 0 {
		return 2, nil
	}
	return 0, nil
}
