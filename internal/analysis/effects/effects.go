// Package effects computes per-function resource-effect summaries on
// top of cfg and callgraph. A FuncEffects answers, for one function,
// the question SPARTAN's resource-lifecycle analyzer (closeleak) needs
// without re-analyzing the body: which results carry an open
// io.Closer, and whether the function closes or stores a parameter,
// discharging the caller's obligation (Opens, ClosesParams,
// StoresParams).
//
// Summaries are computed bottom-up over the SCCs of the package call
// graph (fixpoint iteration inside recursive components) and serialized
// as the "effectsummary" analyzer fact, so downstream packages reuse
// them through the unitchecker's vetx files without dependency source —
// exactly the funcsummary/concsummary plumbing.
package effects

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/summary"
)

// FactName is the analyzer name effect summaries are stored under in a
// FactStore; closeleak reads the fact directly.
const FactName = "effectsummary"

// OpenResult marks a result that carries an open io.Closer the caller
// becomes responsible for: the function opened it (os.Open and friends,
// or a summarized opener) and returned it, or wrapped a stored handle
// in a closer-owning struct.
type OpenResult struct {
	Result int              `json:"result"`
	What   string           `json:"what"`
	Pos    summary.Position `json:"pos"`
}

// FuncEffects is the serialized effect summary of one function, keyed
// in a package fact by types.Func.FullName.
type FuncEffects struct {
	Opens []OpenResult `json:"opens,omitempty"`
	// ClosesParams lists parameters the function closes on some path
	// (directly, deferred, or through a summarized closer): passing an
	// open handle to it discharges the caller's obligation.
	ClosesParams []int `json:"closesParams,omitempty"`
	// StoresParams lists parameters the function stores into a struct
	// field, composite literal, map, slice or global — ownership
	// transfer: whoever holds the container is responsible now.
	StoresParams []int `json:"storesParams,omitempty"`
}

func (s *FuncEffects) empty() bool {
	return len(s.Opens) == 0 && len(s.ClosesParams) == 0 && len(s.StoresParams) == 0
}

func (s *FuncEffects) equal(o *FuncEffects) bool {
	a, _ := json.Marshal(s)
	b, _ := json.Marshal(o)
	return string(a) == string(b)
}

// closesParam reports whether calling the function closes param i.
func (s *FuncEffects) closesParam(i int) bool {
	for _, p := range s.ClosesParams {
		if p == i {
			return true
		}
	}
	return false
}

// storesParam reports whether calling the function stores param i.
func (s *FuncEffects) storesParam(i int) bool {
	for _, p := range s.StoresParams {
		if p == i {
			return true
		}
	}
	return false
}

// Lookup resolves the effect summary of a callee, or nil.
type Lookup func(fn *types.Func) *FuncEffects

// Result is one package's computed effect summaries.
type Result struct {
	// ByFunc holds the summary of every function declared in the
	// package (empty summaries included).
	ByFunc map[*types.Func]*FuncEffects
}

// LookupIn chains the package-local summaries with an imported-fact
// lookup, the resolution order every analyzer wants.
func (r *Result) LookupIn(imported Lookup) Lookup {
	return func(fn *types.Func) *FuncEffects {
		if s, ok := r.ByFunc[fn]; ok {
			return s
		}
		if imported != nil {
			return imported(fn)
		}
		return nil
	}
}

// Compute builds the package call graph, orders it bottom-up by SCC,
// and summarizes every function body. imported resolves cross-package
// callees (nil is fine: unknown callees are treated as effect-free).
func Compute(fset *token.FileSet, files []*ast.File, info *types.Info, imported Lookup) *Result {
	g := callgraph.Build(files, info)
	res := &Result{ByFunc: map[*types.Func]*FuncEffects{}}
	lookup := res.LookupIn(imported)
	for _, scc := range g.SCCs() {
		// Summaries only grow (an opener discovered through a mutually
		// recursive callee adds an entry, never removes one), so
		// a short fixpoint converges; four rounds bound pathological
		// growth the same way funcsummary's and concsummary's do.
		for round := 0; ; round++ {
			changed := false
			for _, n := range scc {
				sum := computeFunc(fset, info, n.Decl, lookup)
				if old := res.ByFunc[n.Func]; old == nil || !old.equal(sum) {
					changed = true
				}
				res.ByFunc[n.Func] = sum
			}
			if !changed || round >= 3 {
				break
			}
		}
	}
	return res
}

// computeFunc summarizes one function declaration with the resource
// engine.
func computeFunc(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) *FuncEffects {
	if decl.Body == nil {
		return &FuncEffects{}
	}
	rs := analyzeResources(fset, info, decl, lookup)
	return &FuncEffects{Opens: rs.Opens, ClosesParams: rs.ClosesParams, StoresParams: rs.StoresParams}
}

// Encode serializes the non-empty summaries as the package fact body.
func (r *Result) Encode() ([]byte, error) {
	byName := map[string]*FuncEffects{}
	for fn, s := range r.ByFunc {
		if !s.empty() {
			byName[fn.FullName()] = s
		}
	}
	if len(byName) == 0 {
		return nil, nil
	}
	return json.Marshal(byName)
}

// DecodeFact parses a fact blob produced by Encode.
func DecodeFact(data []byte) (map[string]*FuncEffects, error) {
	byName := map[string]*FuncEffects{}
	if len(data) == 0 {
		return byName, nil
	}
	if err := json.Unmarshal(data, &byName); err != nil {
		return nil, err
	}
	return byName, nil
}

// ModuleScoped restricts a lookup to functions whose package shares the
// module root of pkgPath. Effect summaries of other modules — the
// standard library above all — are not computed anyway (the drivers
// only visit the module under analysis), but the filter keeps the
// contract symmetric with conc.ModuleScoped and guards against a
// future driver that widens the fact horizon.
func ModuleScoped(pkgPath string, l Lookup) Lookup {
	root := moduleRoot(pkgPath)
	return func(fn *types.Func) *FuncEffects {
		if fn == nil || fn.Pkg() == nil || moduleRoot(fn.Pkg().Path()) != root {
			return nil
		}
		return l(fn)
	}
}

// moduleRoot is the leading element of an import path: "repro" for
// "repro/internal/core", "testing" for "testing".
func moduleRoot(path string) string {
	root, _, _ := strings.Cut(path, "/")
	return root
}

// FactLookup adapts a driver FactStore into a cross-package Lookup,
// caching each dependency's decoded fact. Safe with a nil store.
func FactLookup(store *analysis.FactStore) Lookup {
	cache := map[string]map[string]*FuncEffects{}
	return func(fn *types.Func) *FuncEffects {
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

// argExpr maps a receiver-first parameter index to the call-site
// expression bound to it.
func argExpr(call *ast.CallExpr, callee *types.Func, param int) ast.Expr {
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if param == 0 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		param--
	}
	if param < 0 || param >= len(call.Args) {
		return nil
	}
	return call.Args[param]
}

// paramVars lists the parameter objects of a declaration: receiver
// first, then parameters, matching funcsummary's index convention.
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

func position(fset *token.FileSet, pos token.Pos) summary.Position {
	p := fset.Position(pos)
	return summary.Position{File: p.Filename, Line: p.Line, Col: p.Column}
}

// Analyzer is the fact producer: it emits no diagnostics, only the
// "effectsummary" package fact closeleak consumes for cross-package
// calls. Drivers run it over dependencies because Facts is set.
var Analyzer = &analysis.Analyzer{
	Name:  FactName,
	Doc:   "effectsummary: compute per-function effect summaries (open io.Closer results, parameters closed or stored) bottom-up over call-graph SCCs and export them as a package fact for the resource-lifecycle analyzer",
	Facts: true,
	Run: func(pass *analysis.Pass) error {
		res := Compute(pass.Fset, pass.Files, pass.TypesInfo, ModuleScoped(pass.Pkg.Path(), FactLookup(pass.Facts)))
		blob, err := res.Encode()
		if err != nil {
			return err
		}
		pass.ExportFact(blob)
		return nil
	},
}
