package main

import (
	"flag"
	"fmt"
	"math/rand"

	"repro/internal/bayesnet"
	"repro/internal/table"
)

// cmdDeps runs only the DependencyFinder and prints the inferred Bayesian
// network, optionally as Graphviz DOT:
//
//	spartan deps -in data.csv [-sample 51200] [-dot]
func cmdDeps(args []string) error {
	fs := flag.NewFlagSet("deps", flag.ExitOnError)
	in := fs.String("in", "", "input table (.csv or raw binary)")
	sample := fs.Int("sample", 50<<10, "sample size in bytes")
	seed := fs.Int64("seed", 1, "sampling seed")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	forceCat := fs.String("categorical", "", "comma-separated CSV columns to force categorical")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("deps: -in is required")
	}
	t, err := readTableForced(*in, *forceCat)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	s := t.SampleBytes(*sample, rng)
	net, err := bayesnet.Build(s)
	if err != nil {
		return err
	}
	if *dot {
		printDOT(net, t)
		return nil
	}
	fmt.Printf("Bayesian network over %d attributes (%d edges, %d-row sample):\n\n",
		net.NumNodes(), net.NumEdges(), s.NumRows())
	for _, v := range net.TopoOrder() {
		parents := net.Parents(v)
		if len(parents) == 0 {
			fmt.Printf("  %-24s (root)\n", net.Name(v))
			continue
		}
		fmt.Printf("  %-24s <-", net.Name(v))
		for _, p := range parents {
			fmt.Printf(" %s", net.Name(p))
		}
		fmt.Println()
	}
	return nil
}

func printDOT(net *bayesnet.Network, t *table.Table) {
	fmt.Println("digraph dependencies {")
	fmt.Println("  rankdir=LR;")
	for i := 0; i < net.NumNodes(); i++ {
		shape := "ellipse"
		if t.Attr(i).Kind == table.Categorical {
			shape = "box"
		}
		fmt.Printf("  %q [shape=%s];\n", net.Name(i), shape)
	}
	for _, e := range net.Edges() {
		fmt.Printf("  %q -> %q;\n", net.Name(e[0]), net.Name(e[1]))
	}
	fmt.Println("}")
}
