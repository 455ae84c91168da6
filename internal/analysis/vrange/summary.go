package vrange

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// FactName is the analyzer name range summaries are stored under in a
// FactStore; the range-aware summary engine reads it.
const FactName = "rangesummary"

// ResultRange describes one result of a function, joined over every
// return site.
type ResultRange struct {
	// Lo and Hi bound the result value (sentinels NegInf/PosInf for
	// unbounded directions).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// MinOfParams lists parameters p with result ≤ value(p) proved at
	// every return — the clamp generalization: minInt(a, b) has both
	// parameters here, so a constant argument bounds the result.
	MinOfParams []int `json:"minOf,omitempty"`
	// Params lists parameters whose value may flow into this result
	// (derivation, not taint: guards do not remove entries).
	Params []int `json:"params,omitempty"`
	// Wire reports an untrusted wire read among the result's origins.
	Wire bool `json:"wire,omitempty"`
	// SameLenAs lists earlier result indices whose len provably equals
	// this result's len at every return (twin makes) — what lets a
	// caller prove dicts[a] from a < len(schema).
	SameLenAs []int `json:"sameLenAs,omitempty"`
}

// FuncRange is the serialized value-range summary of one function,
// keyed in a package fact by types.Func.FullName.
type FuncRange struct {
	Params  int           `json:"params"`
	Results []ResultRange `json:"results,omitempty"`
}

func (f *FuncRange) empty() bool {
	for _, r := range f.Results {
		if r.Lo != NegInf || r.Hi != PosInf || r.Wire ||
			len(r.MinOfParams) > 0 || len(r.Params) > 0 || len(r.SameLenAs) > 0 {
			return false
		}
	}
	return true
}

func (f *FuncRange) equal(o *FuncRange) bool {
	a, _ := json.Marshal(f)
	b, _ := json.Marshal(o)
	return string(a) == string(b)
}

// RLookup resolves the range summary of a callee, or nil when unknown.
type RLookup func(fn *types.Func) *FuncRange

// Result is one package's computed range summaries plus the
// per-function engine output the analyzers query.
type Result struct {
	// ByFunc holds the range summary of every function declared in the
	// package (empty summaries included).
	ByFunc map[*types.Func]*FuncRange
	// Funcs holds the full engine output per function: expression
	// intervals, index/slice-bound sites with proofs and derivations.
	Funcs map[*types.Func]*FuncResult
}

// Compute builds the package call graph, orders it bottom-up by SCC,
// and runs the range engine over every function body. imported
// resolves summaries of cross-package callees (nil is fine).
func Compute(fset *token.FileSet, files []*ast.File, info *types.Info, imported RLookup) *Result {
	g := callgraph.Build(files, info)
	res := &Result{
		ByFunc: map[*types.Func]*FuncRange{},
		Funcs:  map[*types.Func]*FuncResult{},
	}
	lookup := func(fn *types.Func) *FuncRange {
		if s, ok := res.ByFunc[fn]; ok {
			return s
		}
		if imported != nil {
			return imported(fn)
		}
		return nil
	}
	for _, scc := range g.SCCs() {
		// Same fixpoint discipline as funcsummary: recursive components
		// iterate until summaries stop changing, bounded at four rounds.
		for round := 0; ; round++ {
			changed := false
			for _, n := range scc {
				e := &Engine{Fset: fset, Info: info, Lookup: lookup}
				fr := e.Run(n.Decl)
				if old := res.ByFunc[n.Func]; old == nil || !old.equal(fr.Range) {
					changed = true
				}
				res.ByFunc[n.Func] = fr.Range
				res.Funcs[n.Func] = fr
			}
			if !changed || round >= 3 {
				break
			}
		}
	}
	return res
}

// Encode serializes the non-empty summaries as the package fact body.
func (r *Result) Encode() ([]byte, error) {
	byName := map[string]*FuncRange{}
	for fn, s := range r.ByFunc {
		if !s.empty() {
			byName[fn.FullName()] = s
		}
	}
	return json.Marshal(byName)
}

// DecodeFact parses a fact blob produced by Encode.
func DecodeFact(data []byte) (map[string]*FuncRange, error) {
	byName := map[string]*FuncRange{}
	if len(data) == 0 {
		return byName, nil
	}
	if err := json.Unmarshal(data, &byName); err != nil {
		return nil, err
	}
	return byName, nil
}

// FactLookup adapts a driver FactStore into a cross-package RLookup,
// caching each dependency's decoded fact. Safe with a nil store.
func FactLookup(store *analysis.FactStore) RLookup {
	cache := map[string]map[string]*FuncRange{}
	return func(fn *types.Func) *FuncRange {
		if fn == nil || fn.Pkg() == nil {
			return nil
		}
		path := fn.Pkg().Path()
		pkg, ok := cache[path]
		if !ok {
			pkg, _ = DecodeFact(store.Get(path, FactName))
			cache[path] = pkg
		}
		return pkg[fn.FullName()]
	}
}

// Analyzer is the fact producer: it emits no diagnostics, only the
// "rangesummary" package fact the range-aware taintalloc/sizeoverflow
// sink filter consumes for cross-package calls.
var Analyzer = &analysis.Analyzer{
	Name:  FactName,
	Doc:   "rangesummary: compute per-function value-range summaries (result intervals, min-of-params clamp shapes, wire-derived results, same-length results) bottom-up over call-graph SCCs and export them as a package fact for the range-aware analyzers",
	Facts: true,
	Run: func(pass *analysis.Pass) error {
		res := Compute(pass.Fset, pass.Files, pass.TypesInfo, FactLookup(pass.Facts))
		blob, err := res.Encode()
		if err != nil {
			return err
		}
		pass.ExportFact(blob)
		return nil
	},
}
