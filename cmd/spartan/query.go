package main

import (
	"flag"
	"fmt"
	"math"
	"strings"

	"repro"
)

// cmdQuery runs an approximate aggregate with guaranteed bounds directly
// against a compressed file:
//
//	spartan query -in data.sptn -agg sum -col charge_cents \
//	    -where "duration_sec > 200 && plan == 'saver'" \
//	    -groupby call_type
//
// The bounds come from the tolerances the file records.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "compressed file")
	agg := fs.String("agg", "count", "aggregate: count, sum, avg, min or max")
	col := fs.String("col", "", "aggregated numeric column (not used for count)")
	where := fs.String("where", "", "filter expression, e.g. \"x > 3 && g == 'a'\"")
	groupBy := fs.String("groupby", "", "categorical column to group by")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("query: -in is required")
	}
	var aggKind spartan.AggKind
	switch strings.ToLower(*agg) {
	case "count":
		aggKind = spartan.Count
	case "sum":
		aggKind = spartan.Sum
	case "avg":
		aggKind = spartan.Avg
	case "min":
		aggKind = spartan.Min
	case "max":
		aggKind = spartan.Max
	default:
		return fmt.Errorf("query: unknown aggregate %q", *agg)
	}

	// Query through the footer so zone maps can skip segments the
	// predicate refutes before any decoding.
	a, err := openArchiveFile(*in)
	if err != nil {
		return err
	}
	defer a.Close()
	pred, err := spartan.ParsePredicate(*where, a.Schema())
	if err != nil {
		return err
	}
	res, qs, err := spartan.QueryArchive(a, spartan.Query{
		Agg:     aggKind,
		Column:  *col,
		Where:   pred,
		GroupBy: *groupBy,
	})
	if err != nil {
		return err
	}
	fmt.Printf("segments: %d decoded, %d pruned (%d of %d rows skipped)\n",
		qs.Decoded, qs.Pruned, qs.RowsPruned, qs.RowsPruned+qs.RowsDecoded)
	label := strings.ToUpper(*agg)
	if *col != "" {
		label += "(" + *col + ")"
	}
	fmt.Printf("%-16s %14s   %s\n", "group", label, "guaranteed bounds")
	for _, g := range res.Groups {
		key := g.Key
		if key == "" {
			key = "(all)"
		}
		if math.IsNaN(g.Value) {
			fmt.Printf("%-16s %14s   (no rows)\n", key, "-")
			continue
		}
		fmt.Printf("%-16s %14.4g   [%.4g, %.4g]  (%d rows, %d uncertain)\n",
			key, g.Value, g.Lo, g.Hi, g.Rows, g.UncertainRows)
	}
	return nil
}
