// Command spartan compresses, decompresses, verifies and inspects tables
// with the SPARTAN model-based semantic compressor.
//
// Usage:
//
//	spartan compress   -in data.csv -out data.sptn [-segment-rows N] [flags]
//	spartan decompress -in data.sptn -out data.csv
//	spartan verify     -original data.csv -compressed data.sptn [flags]
//	spartan inspect    -in data.sptn
//	spartan query      -in data.sptn -agg avg -col x [-where expr] [-groupby g]
//	spartan deps       -in data.csv [flags]
//
// Every compressed file is an archive: compress writes one segment
// holding every row unless -segment-rows splits the rows into segments
// that queries can skip. Table files ending in .csv are parsed as CSV
// with a header row; any other extension is treated as the raw
// fixed-record binary format.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "deps":
		err = cmdDeps(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "spartan: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spartan:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: spartan <command> [flags]

commands:
  compress    semantically compress a table within error tolerances
  decompress  reconstruct a table from a compressed file
  verify      check a compressed file against the original, within the tolerances it records
  inspect     summarize a compressed file
  query       run a bounded approximate aggregate on a compressed file
  deps        show the inferred Bayesian dependency network for a table

compress writes one archive segment holding every row unless
-segment-rows N splits the rows into segments that queries can skip.
run 'spartan <command> -h' for command flags
`)
}

// compressionFlags registers the shared compression knobs.
func compressionFlags(fs *flag.FlagSet) (tol, catTol *float64, sample *int, sel *string, theta *float64, noRowAgg *bool, seed *int64) {
	tol = fs.Float64("tolerance", 0, "numeric error tolerance as a fraction of each attribute's value range (0 = lossless)")
	catTol = fs.Float64("cat-tolerance", 0, "categorical mismatch probability tolerance")
	sample = fs.Int("sample", 50<<10, "model-inference sample size in bytes")
	sel = fs.String("selection", "wmis-parents", "CaRT selection: wmis-parents, wmis-markov or greedy")
	theta = fs.Float64("theta", 2, "greedy selection benefit threshold")
	noRowAgg = fs.Bool("no-rowagg", false, "disable the RowAggregator: store materialized cells without snapping them to the 2e grid")
	seed = fs.Int64("seed", 1, "sampling seed")
	return
}

func selectionFromName(name string) (spartan.SelectionStrategy, error) {
	switch name {
	case "wmis-parents":
		return spartan.SelectWMISParents, nil
	case "wmis-markov":
		return spartan.SelectWMISMarkov, nil
	case "greedy":
		return spartan.SelectGreedy, nil
	default:
		return 0, fmt.Errorf("unknown selection %q (want wmis-parents, wmis-markov or greedy)", name)
	}
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input table (.csv or raw binary)")
	out := fs.String("out", "", "output compressed file")
	quiet := fs.Bool("q", false, "suppress the statistics report")
	trace := fs.Bool("trace", false, "print the per-phase pipeline span tree (paper §4.2 running-time breakdown)")
	segRows := fs.Int("segment-rows", 0, "rows per archive segment (0 = one segment holding every row)")
	workers := fs.Int("workers", 0, "segments compressed concurrently (0 = GOMAXPROCS; output bytes are identical at any setting)")
	forceCat := fs.String("categorical", "", "comma-separated CSV columns to force categorical (numeric-looking codes)")
	tol, catTol, sample, sel, theta, noRowAgg, seed := compressionFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("compress: -in and -out are required")
	}
	t, err := readTableForced(*in, *forceCat)
	if err != nil {
		return err
	}
	strategy, err := selectionFromName(*sel)
	if err != nil {
		return err
	}
	opts := spartan.Options{
		Tolerances:            spartan.UniformTolerances(t, *tol, *catTol),
		SampleBytes:           *sample,
		Selection:             strategy,
		Theta:                 *theta,
		DisableRowAggregation: *noRowAgg,
		Seed:                  *seed,
	}
	var tr *spartan.Trace
	if *trace {
		tr = spartan.NewTrace("compress " + *in)
		tr.CaptureResources()
		opts.Trace = tr
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	stats, err := spartan.Compress(context.Background(), f, t, opts,
		spartan.SegmentOptions{SegmentRows: *segRows, Workers: *workers})
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !*quiet {
		printStats(os.Stderr, stats, time.Since(start))
	}
	tr.WriteTree(os.Stdout)
	return nil
}

// printStats reports the shared plan once, then each segment's and the
// archive's statistics.
func printStats(w io.Writer, s *spartan.ArchiveStats, elapsed time.Duration) {
	fmt.Fprintf(w, "predicted: %s (shared by every segment)\n", strings.Join(s.Predicted, ", "))
	for i, seg := range s.PerSegment {
		fmt.Fprintf(w, "segment %d: ratio %.4f (%d outliers)\n", i, seg.Ratio, seg.Outliers)
	}
	fmt.Fprintf(w, "archive: %d segments, %d rows, %d B (ratio %.4f)\n",
		s.Segments, s.Rows, s.CompressedBytes, s.Ratio)
	fmt.Fprintf(w, "  header %d B, models %d B (%d outliers), T' %d B\n",
		s.HeaderBytes, s.ModelBytes, s.Outliers, s.TPrimeBytes)
	fmt.Fprintf(w, "materialized: %s\n", strings.Join(s.Materialized, ", "))
	fmt.Fprintf(w, "time %v (deps %v, select %v with %d CaRTs built, outliers %v, rowagg %v, encode %v)\n",
		elapsed.Round(time.Millisecond),
		s.Timings.DependencyFinder.Round(time.Millisecond),
		s.Timings.CaRTSelection.Round(time.Millisecond), s.CartsBuilt,
		s.Timings.OutlierScan.Round(time.Millisecond),
		s.Timings.RowAggregation.Round(time.Millisecond),
		s.Timings.Encode.Round(time.Millisecond))
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input compressed file")
	out := fs.String("out", "", "output table (.csv or raw binary)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -in and -out are required")
	}
	t, err := readCompressedFile(*in)
	if err != nil {
		return err
	}
	return writeTable(*out, t)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	orig := fs.String("original", "", "original table (.csv or raw binary)")
	comp := fs.String("compressed", "", "compressed file to check")
	forceCat := fs.String("categorical", "", "comma-separated CSV columns to force categorical")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *orig == "" || *comp == "" {
		return fmt.Errorf("verify: -original and -compressed are required")
	}
	t, err := readTableForced(*orig, *forceCat)
	if err != nil {
		return err
	}
	a, err := openArchiveFile(*comp)
	if err != nil {
		return err
	}
	defer a.Close()
	restored, err := a.ReadAll()
	if err != nil {
		return err
	}
	if err := spartan.Verify(t, restored, a.Tolerances()); err != nil {
		return err
	}
	fmt.Printf("ok: %d rows, %d attributes within tolerances\n",
		restored.NumRows(), restored.NumCols())
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "compressed file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	fi, err := os.Stat(*in)
	if err != nil {
		return err
	}
	a, err := openArchiveFile(*in)
	if err != nil {
		return err
	}
	defer a.Close()
	t, err := a.ReadAll()
	if err != nil {
		return err
	}
	tol := a.Tolerances()
	fmt.Printf("compressed    %d B\n", fi.Size())
	fmt.Printf("rows          %d\n", t.NumRows())
	fmt.Printf("raw size      %d B (ratio %.4f)\n", t.RawSizeBytes(),
		float64(fi.Size())/float64(t.RawSizeBytes()))
	fmt.Printf("attributes    %d\n", t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		attr := t.Attr(i)
		if attr.Kind == spartan.Numeric {
			lo, hi := t.Col(i).MinMax()
			fmt.Printf("  %-20s numeric     range [%g, %g]  max error %g\n", attr.Name, lo, hi, tol[i].Value)
		} else {
			fmt.Printf("  %-20s categorical %d values  max mismatch rate %g\n", attr.Name, t.Col(i).DomainSize(), tol[i].Value)
		}
	}
	return nil
}

// readTableForced reads a table; forceCat names CSV columns whose kind is
// forced to categorical even when every value parses as a number (e.g.
// telephone exchange codes).
func readTableForced(path, forceCat string) (*spartan.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !strings.EqualFold(filepath.Ext(path), ".csv") {
		if forceCat != "" {
			return nil, fmt.Errorf("-categorical applies to CSV inputs only (binary tables carry their kinds)")
		}
		return spartan.ReadBinary(f)
	}
	t, err := spartan.ReadCSV(f, nil)
	if err != nil || forceCat == "" {
		return t, err
	}
	schema := append(spartan.Schema(nil), t.Schema()...)
	for _, name := range strings.Split(forceCat, ",") {
		i := schema.Index(strings.TrimSpace(name))
		if i < 0 {
			return nil, fmt.Errorf("unknown column %q in -categorical", name)
		}
		schema[i].Kind = spartan.Categorical
	}
	// Re-parse with the corrected schema kinds.
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	return spartan.ReadCSV(f, schema)
}

func writeTable(path string, t *spartan.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		if err := spartan.WriteCSV(f, t); err != nil {
			return err
		}
	} else if err := spartan.WriteBinary(f, t); err != nil {
		return err
	}
	return f.Close()
}
