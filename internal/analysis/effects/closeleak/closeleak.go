// Package closeleak flags an opened io.Closer that is not closed on
// every CFG exit path. The archive formats hand out long-lived handles
// — os.Open in the CLI, OpenArchive/OpenSegmented readers, net
// connections in the server — and a handle leaked on an error path
// costs a file descriptor per request until the process starves.
//
// The check is built on the effects layer: openers are the stdlib
// table (os.Open and friends, net dials and listens) plus any module
// function whose "effectsummary" fact records an open result — so
// OpenSegmented is an opener because SegReader has Close, with no
// per-function annotation. An obligation is discharged by:
//
//   - a Close call, direct or deferred (a defer only covers exits
//     after the defer statement runs — an early return before it still
//     leaks);
//   - returning the handle: ownership moves to the caller, and this
//     function's own summary gains an open result;
//   - storing it into a struct, map, slice or global — whoever holds
//     the container owns it now;
//   - passing it to a summarized closer or storer;
//   - capture by a function literal.
//
// The walk is error-path aware: on the failure edge of the open's
// paired err != nil check no resource exists, so return nil, err there
// is clean. Each diagnostic carries the open→leaking-exit path in
// Related, so the SARIF output shows both ends.
package closeleak

import (
	"fmt"
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
)

// Analyzer flags open io.Closer handles leaked on some exit path.
var Analyzer = &analysis.Analyzer{
	Name: "closeleak",
	Doc: "flag opened io.Closer handles (os.Open, archive readers, net conns) not closed on every exit path\n\n" +
		"Close the handle on every path: defer the Close right after the\n" +
		"open's error check, return the handle to transfer ownership, or\n" +
		"store it into a struct whose Close closes the field.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	imported := effects.ModuleScoped(pass.Pkg.Path(), effects.FactLookup(pass.Facts))
	local := effects.Compute(pass.Fset, pass.Files, pass.TypesInfo, imported)
	lookup := local.LookupIn(imported)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			for _, lf := range effects.LeakFindings(pass.Fset, pass.TypesInfo, decl, lookup) {
				report(pass, lf)
			}
		}
	}
	return nil
}

func report(pass *analysis.Pass, lf effects.LeakFinding) {
	related := make([]analysis.RelatedLocation, 0, len(lf.Steps))
	for _, st := range lf.Steps {
		related = append(related, analysis.RelatedLocation{Pos: st.Pos, Message: st.Msg})
	}
	pass.Report(analysis.Diagnostic{
		Pos: lf.OpenPos,
		Message: fmt.Sprintf("%s is opened here but a path %s; defer the Close after the error check, return the handle, or store it in a closer-owning struct",
			lf.What, lf.ExitMsg),
		Related: related,
	})
}
