package conc

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

// FactName is the analyzer name concurrency summaries are stored under
// in a FactStore; boundedspawn reads the fact directly, the same way
// taintalloc reads "funcsummary".
const FactName = "concsummary"

// FuncConc is the serialized concurrency summary of one function, keyed
// in a package fact by types.Func.FullName.
type FuncConc struct {
	// Spawns reports that the function starts goroutines, directly or
	// through a callee.
	Spawns bool `json:"spawns,omitempty"`
	// SpawnSites locates the direct go statements (for diagnostics'
	// related-location paths).
	SpawnSites []summary.Position `json:"spawnSites,omitempty"`
	// AsyncSpawn reports that a spawned goroutine can outlive the call:
	// there is a spawn with no sync.WaitGroup.Wait joining it before
	// return, or a callee spawns goroutines this function cannot join.
	// Calling an async spawner once per row is itself an unbounded
	// spawn, which is why boundedspawn needs the distinction.
	AsyncSpawn bool `json:"asyncSpawn,omitempty"`
	// Via names the callee the spawn was inherited from, when the
	// function spawns only through another function.
	Via string `json:"via,omitempty"`
}

func (s *FuncConc) empty() bool {
	return !s.Spawns && !s.AsyncSpawn
}

func (s *FuncConc) equal(o *FuncConc) bool {
	a, _ := json.Marshal(s)
	b, _ := json.Marshal(o)
	return string(a) == string(b)
}

// Lookup resolves the concurrency summary of a callee, or nil.
type Lookup func(fn *types.Func) *FuncConc

// Result is one package's computed concurrency summaries.
type Result struct {
	// ByFunc holds the summary of every function declared in the
	// package (empty summaries included).
	ByFunc map[*types.Func]*FuncConc
}

// LookupIn chains the package-local summaries with an imported-fact
// lookup, the resolution order every analyzer wants.
func (r *Result) LookupIn(imported Lookup) Lookup {
	return func(fn *types.Func) *FuncConc {
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
// callees (nil is fine: unknown callees are treated as non-spawners).
func Compute(fset *token.FileSet, files []*ast.File, info *types.Info, imported Lookup) *Result {
	g := callgraph.Build(files, info)
	res := &Result{ByFunc: map[*types.Func]*FuncConc{}}
	lookup := res.LookupIn(imported)
	for _, scc := range g.SCCs() {
		// Summaries only grow (a spawn discovered through a mutually
		// recursive callee adds a bit, never removes one), so a short
		// fixpoint converges; four rounds bound pathological growth the
		// same way funcsummary's do.
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

// computeFunc summarizes one function declaration.
func computeFunc(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) *FuncConc {
	sum := &FuncConc{}
	if decl.Body == nil {
		return sum
	}

	// Spawn shape: direct go statements and async callees, outside
	// nested function literals (a closure's spawns belong to whoever
	// runs the closure).
	var lastWait token.Pos
	var spawnEnds []token.Pos
	walkOutsideFuncLits(decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			sum.Spawns = true
			sum.SpawnSites = append(sum.SpawnSites, position(fset, n.Pos()))
			spawnEnds = append(spawnEnds, n.Pos())
		case *ast.CallExpr:
			if isWaitGroupWait(info, n) {
				if n.Pos() > lastWait {
					lastWait = n.Pos()
				}
				return
			}
			callee, dynamic, isCall := callgraph.StaticCallee(info, n)
			if !isCall || dynamic || callee == nil {
				return
			}
			if cs := lookup(callee); cs != nil && cs.Spawns {
				sum.Spawns = true
				if sum.Via == "" && len(sum.SpawnSites) == 0 {
					sum.Via = callee.Name()
				}
				if cs.AsyncSpawn {
					// The callee's goroutines outlive its return and
					// this function has no handle to join them.
					sum.AsyncSpawn = true
				}
			}
		}
	})
	for _, p := range spawnEnds {
		if lastWait < p {
			sum.AsyncSpawn = true
		}
	}
	return sum
}

// walkOutsideFuncLits visits every node of body that executes on the
// function's own goroutine and defer-free path: nested function
// literals and deferred calls are skipped.
func walkOutsideFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func position(fset *token.FileSet, pos token.Pos) summary.Position {
	p := fset.Position(pos)
	return summary.Position{File: p.Filename, Line: p.Line, Col: p.Column}
}

// Encode serializes the non-empty summaries as the package fact body.
func (r *Result) Encode() ([]byte, error) {
	byName := map[string]*FuncConc{}
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
func DecodeFact(data []byte) (map[string]*FuncConc, error) {
	byName := map[string]*FuncConc{}
	if len(data) == 0 {
		return byName, nil
	}
	if err := json.Unmarshal(data, &byName); err != nil {
		return nil, err
	}
	return byName, nil
}

// ModuleScoped restricts a lookup to functions whose package shares the
// module root of pkgPath. Concurrency summaries of other modules — the
// standard library above all — describe goroutines those libraries
// manage themselves: http's per-connection goroutines, pprof's profile
// writer, testing's tRunner. Propagating them makes every transitive
// caller a "spawner" (fmt.Errorf reaches one eventually) and drowns the
// repo's own signal, so the analyzers inherit summaries only within the
// module under analysis.
func ModuleScoped(pkgPath string, l Lookup) Lookup {
	root := moduleRoot(pkgPath)
	return func(fn *types.Func) *FuncConc {
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
	cache := map[string]map[string]*FuncConc{}
	return func(fn *types.Func) *FuncConc {
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
// "concsummary" package fact boundedspawn consumes for cross-package
// calls. Drivers run it over dependencies because Facts is set.
var Analyzer = &analysis.Analyzer{
	Name:  FactName,
	Doc:   "concsummary: compute per-function concurrency summaries (goroutine spawns and whether they outlive the call) bottom-up over call-graph SCCs and export them as a package fact for boundedspawn",
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
