// Package taintalloc implements the wire-taint allocation check, the
// first production analyzer on spartanvet's interprocedural layer
// (callgraph + summary). Any integer derived from an untrusted wire
// read — binary.ReadUvarint and friends, or a function whose summary
// says a wire value flows into its result — is tainted. Taint dies when
// the value passes a bounding comparison against an untainted limit
// (the DecodeLimits discipline: `if n > lim.MaxRows { return err }`),
// is reassigned a trusted value, or goes through builtin min with an
// untainted argument. A mask or a hand-written clamp helper does not
// clear it. Tainted values must not reach:
//
//   - make sizes or capacities,
//   - the bound of a loop that appends or makes per iteration,
//   - bytes.Buffer.Grow / strings.Builder.Grow, io.CopyN lengths,
//   - slice/array/string indexing or slice bounds,
//   - a parameter the callee's summary marks as reaching one of the
//     above unguarded — including through helper chains and, via the
//     unitchecker fact files, across package boundaries.
//
// Findings carry the full source→sink path as related locations, so
// the SARIF report (and CI annotations) show where the value entered
// and every assignment it travelled through.
//
// Scope: the hostile-input decode packages — codec, cart, archive —
// whose every wire count passes a DecodeLimits comparison. The other
// wire decoders (fascicle, table, pzipref) are out of scope.
package taintalloc

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/summary"
)

// Analyzer flags unguarded wire-derived values reaching allocations.
var Analyzer = &analysis.Analyzer{
	Name: "taintalloc",
	Doc:  "taintalloc: report untrusted wire-read integers (varint/length/count decodes) that reach make, append-growing loop bounds, Buffer.Grow, io.CopyN or slice indexing without first passing a bounding comparison (DecodeLimits) or a builtin min clamp; interprocedural via function summaries",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase("codec", "cart", "archive") {
		return nil
	}
	res := summary.Compute(pass.Fset, pass.Files, pass.TypesInfo, summary.FactLookup(pass.Facts))

	// Deterministic report order: by function position.
	fns := make([]*types.Func, 0, len(res.Flows))
	for fn := range res.Flows {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	for _, fn := range fns {
		for _, hit := range res.Flows[fn].Sinks {
			if !hit.Taint.FromSource() {
				continue // parameter-only taint is the caller's finding
			}
			pass.Report(diagnose(pass, hit))
		}
	}
	return nil
}

func diagnose(pass *analysis.Pass, hit summary.SinkHit) analysis.Diagnostic {
	var msg string
	if hit.CalleeSink != nil {
		via := hit.Callee.Name()
		if hit.CalleeSink.Via != "" {
			via += " → " + hit.CalleeSink.Via
		}
		msg = fmt.Sprintf(
			"wire-tainted value flows into %s and reaches %s unguarded; compare it against DecodeLimits (or clamp it with builtin min) before the call",
			via, hit.CalleeSink.What)
	} else {
		msg = fmt.Sprintf(
			"wire-tainted value reaches %s unguarded; compare it against DecodeLimits (or clamp it with builtin min) before allocating",
			hit.What)
	}
	d := analysis.Diagnostic{Pos: hit.Pos, Message: msg, Related: TaintPath(hit)}
	return d
}

// TaintPath renders a sink hit's taint chain as related locations in
// source→sink order, appending the callee's allocation site when the
// sink lives in a summarized helper. Shared with sizeoverflow.
func TaintPath(hit summary.SinkHit) []analysis.RelatedLocation {
	rel := StepsPath(hit.Taint)
	if hit.CalleeSink != nil {
		rel = append(rel, analysis.RelatedLocation{
			Pos:      token.NoPos,
			Position: hit.CalleeSink.Pos.ToTokenPosition(),
			Message:  "allocation site (" + hit.CalleeSink.What + ") in " + hit.Callee.Name(),
		})
	}
	return rel
}

// StepsPath converts a taint's recorded steps, dropping consecutive
// duplicates of the same position so paths stay readable.
func StepsPath(t summary.Taint) []analysis.RelatedLocation {
	var rel []analysis.RelatedLocation
	var lastPos token.Pos
	var lastWhat string
	for _, st := range t.Steps() {
		if st.Pos == lastPos && strings.HasPrefix(st.What, "flows into") && strings.HasPrefix(lastWhat, "flows into") {
			continue
		}
		rel = append(rel, analysis.RelatedLocation{Pos: st.Pos, Message: st.What})
		lastPos, lastWhat = st.Pos, st.What
	}
	return rel
}
