// Spartanvet is SPARTAN's domain-aware static-analysis suite:
// analyzers that encode invariants the Go compiler cannot see. All five
// are syntactic and look at one package at a time: raw float equality on
// tolerances, unfinished pipeline spans, swallowed archive-write errors,
// context-threading conventions in the pipeline packages, and defers
// inside per-row loops.
//
// Some invariants have tests instead of an analyzer: the decoders'
// hostile-input tables in internal/codec and internal/cart pin every
// bound on untrusted wire counts, internal/par's tests and its
// go-statement test pin bounded goroutine fan-out, cmd/spartan's
// /proc/self/fd test pins file-handle closing, and
// internal/core's TestApplyAllocationsDoNotGrowWithRows measures that
// the apply step does not allocate per row. Metric names and label sets
// are checked by obs.Registry when each family is registered, so every
// test that builds the HTTP server checks every registration, and
// internal/obs's TestRegistryUsableAfterPanics requires every registry
// lock to be released when its critical section panics.
//
// It takes package patterns and no flags, covers test files, prints
// one line per finding and gates on any:
//
//	go build -o bin/spartanvet ./cmd/spartanvet
//	bin/spartanvet ./...
//
// or simply `make lint`.
//
// See docs/DEVELOPMENT.md for the analyzer catalogue.
package main

import (
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxfirst"
	"repro/internal/analysis/deferloop"
	"repro/internal/analysis/errcheckio"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/spanfinish"
	"repro/internal/analysis/unitchecker"
)

// analyzers is the full suite in registration order; the self-benchmark
// in bench_test.go measures each entry over a fixture corpus.
var analyzers = []*analysis.Analyzer{
	floatcmp.Analyzer,
	spanfinish.Analyzer,
	errcheckio.Analyzer,
	ctxfirst.Analyzer,
	deferloop.Analyzer,
}

func main() {
	unitchecker.Run("spartanvet", os.Args[1:], analyzers)
}
