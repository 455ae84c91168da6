// Spartanvet is SPARTAN's domain-aware static-analysis suite:
// analyzers that encode invariants the Go compiler cannot see. Six are
// syntactic (raw float equality on tolerances, unfinished pipeline
// spans, unbalanced registry locks, swallowed archive-write errors,
// malformed metric names, context-threading conventions in the pipeline
// packages); three are flow-sensitive, built on the control-flow graphs
// and dataflow solver in internal/analysis/cfg and
// internal/analysis/dataflow (values used on proven-error paths, defers
// accumulating inside per-row loops, hint-less allocations in
// row-bounded loops); two are interprocedural, built on the call graph
// and function summaries in internal/analysis/callgraph and
// internal/analysis/summary (taintalloc: untrusted wire integers
// reaching allocations unguarded, sizeoverflow: overflow-prone
// arithmetic on wire values), fed by the funcsummary fact producer,
// which hands per-function dataflow summaries across package boundaries
// through vet's .vetx fact files, and range-filtered by the rangesummary
// fact producer in internal/analysis/vrange, which proves value bounds
// bottom-up over call-graph SCCs; boundedspawn (per-row goroutine spawns
// with no concurrency bound) rides the goroutine-spawn model and
// concsummary facts in internal/analysis/conc; closeleak (opened
// io.Closer handles not closed on every CFG exit path, defer- and
// ownership-transfer-aware) rides the resource summaries and
// effectsummary facts in internal/analysis/effects. A synthetic check,
// staleignore, flags //spartanvet:ignore directives that no longer
// suppress anything.
//
// It speaks the `go vet` tool protocol; run it through the go command:
//
//	go build -o bin/spartanvet ./cmd/spartanvet
//	go vet -vettool=bin/spartanvet ./...
//
// or simply `make lint`. Individual analyzers can be selected the same
// way as with stock vet: `go vet -vettool=bin/spartanvet -floatcmp ./...`.
//
// It also runs standalone over package patterns, aggregating the whole
// module into one report for CI:
//
//	bin/spartanvet -sarif ./... > spartanvet.sarif   # GitHub code scanning
//	bin/spartanvet -json ./...                       # scripting
//	bin/spartanvet -debug.cfg=EncodeFascicle ./...   # dump a function's CFG
//
// See docs/DEVELOPMENT.md for the analyzer catalogue, the
// //spartanvet:ignore suppression syntax, and a guide to writing new
// flow-sensitive analyzers.
package main

import (
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/conc"
	"repro/internal/analysis/conc/boundedspawn"
	"repro/internal/analysis/ctxfirst"
	"repro/internal/analysis/deferloop"
	"repro/internal/analysis/effects"
	"repro/internal/analysis/effects/closeleak"
	"repro/internal/analysis/errcheckio"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockbalance"
	"repro/internal/analysis/metricname"
	"repro/internal/analysis/nilflow"
	"repro/internal/analysis/sizeoverflow"
	"repro/internal/analysis/spanfinish"
	"repro/internal/analysis/summary"
	"repro/internal/analysis/taintalloc"
	"repro/internal/analysis/unitchecker"
	"repro/internal/analysis/vrange"
)

// analyzers is the full suite in registration order; the self-benchmark
// in bench_test.go measures each entry over a fixture corpus.
var analyzers = []*analysis.Analyzer{
	floatcmp.Analyzer,
	spanfinish.Analyzer,
	lockbalance.Analyzer,
	errcheckio.Analyzer,
	metricname.Analyzer,
	ctxfirst.Analyzer,
	nilflow.Analyzer,
	deferloop.Analyzer,
	hotalloc.Analyzer,
	summary.Analyzer,
	vrange.Analyzer,
	taintalloc.Analyzer,
	sizeoverflow.Analyzer,
	conc.Analyzer,
	boundedspawn.Analyzer,
	effects.Analyzer,
	closeleak.Analyzer,
}

func main() {
	unitchecker.Run("spartanvet", os.Args[1:], analyzers)
}
