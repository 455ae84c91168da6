// Command spartanbench regenerates every table and figure of the paper's
// evaluation (§4) against the synthetic stand-in datasets.
//
// Usage:
//
//	spartanbench fig5    [-rows N] [-seed S]   compression ratio vs error threshold (Figure 5 a/b/c)
//	spartanbench fig6a   [-rows N] [-seed S]   compression ratio vs sample size (Figure 6a)
//	spartanbench fig6b   [-rows N] [-seed S]   running time vs error threshold (Figure 6b)
//	spartanbench fig6c   [-rows N] [-seed S]   running time vs sample size (Figure 6c)
//	spartanbench table1  [-rows N] [-seed S]   CaRT-selection algorithms (Table 1)
//	spartanbench lossless [-rows N] [-seed S]  lossless baselines (gzip / pzip / SPARTAN ē=0)
//	spartanbench ablate  [-rows N] [-seed S]   design-choice ablations
//	spartanbench summary [-rows N] [-seed S]   everything above
//
// Performance trajectory, run from the repository root (docs/OBSERVABILITY.md):
//
//	spartanbench record
//	    run benchmark/ on every BENCHMARK.json workload into the next BENCH_<n>.json
//	spartanbench diff OLD.json NEW.json
//	    compare two snapshots by the BENCHMARK.json bounds; exit 2 on a regression
//
// -rows 0 (the default) selects per-dataset scaled-down versions of the
// paper's table sizes; see EXPERIMENTS.md for the mapping.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	// The trajectory subcommands take no flags: BENCHMARK.json sets the
	// workloads, run length and bounds.
	switch cmd {
	case "record":
		if err := recordMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "spartanbench:", err)
			os.Exit(1)
		}
		return
	case "diff":
		code, err := diffMain(os.Args[2:], specPath, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spartanbench:", err)
			os.Exit(1)
		}
		os.Exit(code)
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	rows := fs.Int("rows", 0, "rows per dataset (0 = per-dataset default)")
	seed := fs.Int64("seed", 1, "generator seed")
	csvOut := fs.Bool("csv", false, "emit machine-readable CSV instead of aligned text (fig5, fig6a, fig6b, fig6c, table1)")
	trace := fs.Bool("trace", false, "print each SPARTAN run's per-phase span tree (paper §4.2 breakdown)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *trace {
		experiments.TraceSink = os.Stdout
	}
	var err error
	switch cmd {
	case "fig5":
		if *csvOut {
			err = fig5CSV(*rows, *seed)
			break
		}
		err = fig5(*rows, *seed)
	case "fig6a":
		if *csvOut {
			err = fig6aCSV(*rows, *seed)
			break
		}
		err = fig6a(*rows, *seed)
	case "fig6b":
		if *csvOut {
			err = fig6bCSV(*rows, *seed)
			break
		}
		err = fig6b(*rows, *seed)
	case "fig6c":
		if *csvOut {
			err = fig6cCSV(*rows, *seed)
			break
		}
		err = fig6c(*rows, *seed)
	case "table1":
		if *csvOut {
			err = table1CSV(*rows, *seed)
			break
		}
		err = table1(*rows, *seed)
	case "ablate":
		err = ablate(*rows, *seed)
	case "lossless":
		err = lossless(*rows, *seed)
	case "summary":
		err = summary(*rows, *seed)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "spartanbench: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spartanbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: spartanbench <fig5|fig6a|fig6b|fig6c|table1|lossless|ablate|summary> [-rows N] [-seed S] [-csv] [-trace]
       spartanbench record
       spartanbench diff OLD.json NEW.json
`)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fig5(rows int, seed int64) error {
	header("Figure 5: compression ratio vs error threshold (gzip / fascicles / SPARTAN)")
	for _, d := range experiments.AllDatasets {
		if _, err := experiments.Fig5(d, rows, seed, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func fig6a(rows int, seed int64) error {
	header("Figure 6(a): compression ratio vs sample size (Forest-cover, 1% tolerance)")
	_, err := experiments.Fig6a(experiments.ForestCover, rows, 0.01, seed, os.Stdout)
	return err
}

func fig6b(rows int, seed int64) error {
	header("Figure 6(b): SPARTAN running time vs error threshold")
	for _, d := range experiments.AllDatasets {
		if _, err := experiments.Fig6b(d, rows, seed, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func fig6c(rows int, seed int64) error {
	header("Figure 6(c): SPARTAN running time vs sample size (1% tolerance)")
	for _, d := range experiments.AllDatasets {
		pts, err := experiments.Fig6a(d, rows, 0.01, seed, nil)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("%-8s sample=%3dKB  time %8v  (deps %v, select %v, outliers %v)\n",
				d, p.SampleBytes>>10, p.Elapsed.Round(time.Millisecond),
				p.Stats.Timings.DependencyFinder.Round(time.Millisecond),
				p.Stats.Timings.CaRTSelection.Round(time.Millisecond),
				p.Stats.Timings.OutlierScan.Round(time.Millisecond))
		}
	}
	return nil
}

func table1(rows int, seed int64) error {
	header("Table 1: CaRT-selection algorithm vs compression ratio / running time (1% tolerance)")
	_, err := experiments.Table1(experiments.AllDatasets, rows, seed, os.Stdout)
	return err
}

func fig5CSV(rows int, seed int64) error {
	fmt.Println("dataset,tolerance,gzip_ratio,fascicle_ratio,spartan_ratio")
	for _, d := range experiments.AllDatasets {
		ms, err := experiments.Fig5(d, rows, seed, nil)
		if err != nil {
			return err
		}
		for _, m := range ms {
			fmt.Printf("%s,%g,%.4f,%.4f,%.4f\n",
				d, m.Tolerance, m.Gzip.Ratio, m.Fascicles.Ratio, m.Spartan.Ratio)
		}
	}
	return nil
}

func fig6aCSV(rows int, seed int64) error {
	fmt.Println("dataset,sample_bytes,spartan_ratio,elapsed_ms")
	for _, d := range experiments.AllDatasets {
		pts, err := experiments.Fig6a(d, rows, 0.01, seed, nil)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("%s,%d,%.4f,%d\n", d, p.SampleBytes, p.Ratio, p.Elapsed.Milliseconds())
		}
	}
	return nil
}

func fig6bCSV(rows int, seed int64) error {
	fmt.Println("dataset,tolerance,elapsed_ms,deps_ms,select_ms,rowagg_ms,outliers_ms,encode_ms")
	for _, d := range experiments.AllDatasets {
		pts, err := experiments.Fig6b(d, rows, seed, nil)
		if err != nil {
			return err
		}
		for _, p := range pts {
			t := p.Stats.Timings
			fmt.Printf("%s,%g,%d,%d,%d,%d,%d,%d\n",
				d, p.Tolerance, p.Elapsed.Milliseconds(),
				t.DependencyFinder.Milliseconds(), t.CaRTSelection.Milliseconds(),
				t.RowAggregation.Milliseconds(), t.OutlierScan.Milliseconds(),
				t.Encode.Milliseconds())
		}
	}
	return nil
}

func fig6cCSV(rows int, seed int64) error {
	fmt.Println("dataset,sample_bytes,elapsed_ms,deps_ms,select_ms,outliers_ms")
	for _, d := range experiments.AllDatasets {
		pts, err := experiments.Fig6a(d, rows, 0.01, seed, nil)
		if err != nil {
			return err
		}
		for _, p := range pts {
			t := p.Stats.Timings
			fmt.Printf("%s,%d,%d,%d,%d,%d\n",
				d, p.SampleBytes, p.Elapsed.Milliseconds(),
				t.DependencyFinder.Milliseconds(), t.CaRTSelection.Milliseconds(),
				t.OutlierScan.Milliseconds())
		}
	}
	return nil
}

func table1CSV(rows int, seed int64) error {
	fmt.Println("dataset,strategy,spartan_ratio,elapsed_ms,carts_built")
	rs, err := experiments.Table1(experiments.AllDatasets, rows, seed, nil)
	if err != nil {
		return err
	}
	for _, r := range rs {
		fmt.Printf("%s,%s,%.4f,%d,%d\n", r.Dataset, r.Strategy, r.Ratio,
			r.Elapsed.Milliseconds(), r.CartsBuilt)
	}
	return nil
}

func lossless(rows int, seed int64) error {
	header("Lossless comparison (ē = 0): sorted gzip / pzip-style grouping / SPARTAN")
	for _, d := range experiments.AllDatasets {
		if _, err := experiments.Lossless(d, rows, seed, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func ablate(rows int, seed int64) error {
	for _, d := range experiments.AllDatasets {
		header(fmt.Sprintf("Ablations on %s (1%% tolerance)", d))
		if _, err := experiments.Ablations(d, rows, seed, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func summary(rows int, seed int64) error {
	for _, f := range []func(int, int64) error{fig5, fig6a, fig6b, fig6c, table1, lossless, ablate} {
		if err := f(rows, seed); err != nil {
			return err
		}
	}
	return nil
}
