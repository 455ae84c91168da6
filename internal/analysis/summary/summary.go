// Package summary computes per-function dataflow summaries — the
// second rung of spartanvet's interprocedural layer, on top of
// internal/analysis/callgraph. A FuncSummary answers, for one function,
// the questions a caller-side taint analysis needs without re-analyzing
// the callee's body:
//
//   - which parameters flow into which results (ReturnFlows), and
//     whether an untrusted wire read flows into a result (Source);
//   - which parameters reach an allocation-shaped sink unguarded inside
//     the function or its callees (SinkParams) — a make size, the bound
//     of an allocating loop, bytes.Buffer.Grow, io.CopyN.
//
// Summaries are computed bottom-up over the SCCs of the package call
// graph (fixpoint iteration inside recursive components) by the
// edge-sensitive taint engine in taint.go, and exported as the
// "funcsummary" analyzer fact so downstream packages reuse them without
// re-analyzing dependency source.
//
// Taint dies only through a few local rules: a comparison against an
// untainted value on the edge where it holds (`if n > lim.MaxRows {
// return err }`), the same comparison on the left of && or ||,
// reassignment from an untainted value, and builtin min with an
// untainted argument. A mask, a modulo or a hand-written clamp helper
// does not clear taint; the decoders bound every wire count with a
// DecodeLimits comparison instead.
package summary

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// FactName is the analyzer name summaries are stored under in a
// FactStore; taintalloc and sizeoverflow read the fact directly.
const FactName = "funcsummary"

// Position is a resolved source position for facts — cross-package
// sink sites cannot travel as token.Pos, because the driver parses each
// package into its own FileSet.
type Position struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func toPosition(p token.Position) Position {
	return Position{File: p.Filename, Line: p.Line, Col: p.Column}
}

// ToTokenPosition converts back for diagnostics.
func (p Position) ToTokenPosition() token.Position {
	return token.Position{Filename: p.File, Line: p.Line, Column: p.Col}
}

// ReturnFlow describes one result of a function.
type ReturnFlow struct {
	// Params lists the parameter indices (receiver first for methods)
	// whose value may flow into this result.
	Params []int `json:"params,omitempty"`
	// Source reports that an untrusted wire read (varint decode and
	// friends) may flow into this result.
	Source bool `json:"source,omitempty"`
}

// SinkParam marks a parameter that reaches an allocation sink without a
// bounding comparison on the way.
type SinkParam struct {
	Param int      `json:"param"`
	What  string   `json:"what"` // e.g. "make size", "allocating loop bound"
	Pos   Position `json:"pos"`
	// Via names the chain of callees between this function and the sink
	// when the flow is itself interprocedural ("readNumericColumn").
	Via string `json:"via,omitempty"`
}

// FuncSummary is the dataflow summary of one function, keyed in a
// package fact by types.Func.FullName.
type FuncSummary struct {
	Params      int          `json:"params"`
	ReturnFlows []ReturnFlow `json:"returns,omitempty"`
	SinkParams  []SinkParam  `json:"sinks,omitempty"`
}

func (s *FuncSummary) empty() bool {
	if len(s.SinkParams) > 0 {
		return false
	}
	for _, rf := range s.ReturnFlows {
		if rf.Source || len(rf.Params) > 0 {
			return false
		}
	}
	return true
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	a, _ := json.Marshal(s)
	b, _ := json.Marshal(o)
	return string(a) == string(b)
}

// Lookup resolves the summary of a callee, or nil when unknown.
type Lookup func(fn *types.Func) *FuncSummary

// Result is one package's computed summaries plus the per-function taint
// flows the analyzers report from.
type Result struct {
	// ByFunc holds the summary of every function declared in the
	// package (empty summaries included).
	ByFunc map[*types.Func]*FuncSummary
	// Flows holds the final taint engine output per function: sink
	// hits, narrowing conversions and overflow-prone products, for
	// taintalloc and sizeoverflow to report.
	Flows map[*types.Func]*Flow
}

// Compute builds the call graph of the package, orders it bottom-up by
// SCC, and runs the taint engine over every function body. imported
// resolves summaries of cross-package callees (nil is fine: those
// callees are treated as unknown, conservatively summary-free).
func Compute(fset *token.FileSet, files []*ast.File, info *types.Info, imported Lookup) *Result {
	g := callgraph.Build(files, info)
	res := &Result{
		ByFunc: map[*types.Func]*FuncSummary{},
		Flows:  map[*types.Func]*Flow{},
	}
	lookup := func(fn *types.Func) *FuncSummary {
		if s, ok := res.ByFunc[fn]; ok {
			return s
		}
		if imported != nil {
			return imported(fn)
		}
		return nil
	}
	for _, scc := range g.SCCs() {
		// Inside a recursive component, callee summaries start empty
		// and the component iterates to a fixpoint; summaries only grow
		// (more flows, more sink params), so this terminates. Four
		// rounds bound pathological growth: deeper mutual recursion
		// than that stops refining, which only loses precision.
		for round := 0; ; round++ {
			changed := false
			for _, n := range scc {
				e := &Engine{Fset: fset, Info: info, Lookup: lookup}
				flow := e.Run(n.Decl)
				sum := flow.Summary()
				if old := res.ByFunc[n.Func]; old == nil || !old.equal(sum) {
					changed = true
				}
				res.ByFunc[n.Func] = sum
				res.Flows[n.Func] = flow
			}
			if !changed || round >= 3 {
				break
			}
		}
	}
	return res
}

// FactLookup adapts a driver FactStore into a cross-package Lookup.
// Safe with a nil store (every lookup misses).
func FactLookup(store *analysis.FactStore) Lookup {
	return func(fn *types.Func) *FuncSummary {
		if fn == nil || fn.Pkg() == nil {
			return nil
		}
		fact, _ := store.Get(fn.Pkg().Path(), FactName).(map[string]*FuncSummary)
		return fact[fn.FullName()]
	}
}

// Analyzer is the fact producer: it emits no diagnostics, only the
// "funcsummary" package fact — the non-empty summaries keyed by
// types.Func.FullName — that taintalloc and sizeoverflow (and any
// future bound-checking analyzer) consume for cross-package calls.
// Drivers run it over dependencies because Facts is set.
var Analyzer = &analysis.Analyzer{
	Name:  FactName,
	Doc:   "funcsummary: compute per-function dataflow summaries (param→return flows, unguarded sink parameters, wire-source returns) bottom-up over call-graph SCCs, and export them as a package fact for the interprocedural analyzers",
	Facts: true,
	Run: func(pass *analysis.Pass) error {
		res := Compute(pass.Fset, pass.Files, pass.TypesInfo, FactLookup(pass.Facts))
		fact := map[string]*FuncSummary{}
		for fn, s := range res.ByFunc {
			if !s.empty() {
				fact[fn.FullName()] = s
			}
		}
		pass.ExportFact(fact)
		return nil
	},
}

// paramVars lists the taint-tracked parameter objects of a declaration:
// receiver first, then parameters, in declaration order. Blank and
// anonymous parameters occupy their index with a nil entry.
func paramVars(decl *ast.FuncDecl, info *types.Info) []*types.Var {
	var out []*types.Var
	addField := func(f *ast.Field) {
		if len(f.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			addField(f)
		}
	}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			addField(f)
		}
	}
	return out
}

// resultVars lists the named result objects (nil entries for unnamed),
// for taint queries at bare returns.
func resultVars(decl *ast.FuncDecl, info *types.Info) []*types.Var {
	var out []*types.Var
	if decl.Type.Results == nil {
		return out
	}
	for _, f := range decl.Type.Results.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

func isIntegerKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
