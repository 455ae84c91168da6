package conc_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis/conc"
)

// check type-checks one source string and returns what the conc layer
// needs: the fileset, file, and types info.
func check(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := cfg.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

func funcBody(f *ast.File, name string) *ast.BlockStmt {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	return nil
}

func TestSpawnsCapturesAndLoops(t *testing.T) {
	_, f, info := check(t, `package p

func use(int) {}

func spawner(rows []int) {
	shared := 0
	for _, r := range rows {
		go func() {
			shared += r
		}()
	}
	go use(shared)
}
`)
	spawns := conc.Spawns(info, funcBody(f, "spawner"), nil)
	if len(spawns) != 2 {
		t.Fatalf("expected 2 spawns, got %d", len(spawns))
	}
	// The closure spawned per row sits in the range loop; the go
	// statement after the loop sits in none. Both are direct spawns.
	if inLoop := spawns[0]; inLoop.Go == nil || inLoop.Loop == nil {
		t.Errorf("first spawn should be a direct go inside the loop: %+v", inLoop)
	}
	if named := spawns[1]; named.Go == nil || named.Loop != nil || named.Via != nil {
		t.Errorf("second spawn should be a direct go outside the loop: %+v", named)
	}
}

func TestComputeSummaries(t *testing.T) {
	fset, f, info := check(t, `package p

import "sync"

func work() {}

func fire() {
	go work()
}

func fireJoined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

func viaFire() { fire() }
`)
	res := conc.Compute(fset, []*ast.File{f}, info, nil)
	byName := map[string]*conc.FuncConc{}
	for fn, s := range res.ByFunc {
		byName[fn.Name()] = s
	}

	if s := byName["fire"]; !s.Spawns || !s.AsyncSpawn || len(s.SpawnSites) != 1 {
		t.Errorf("fire should spawn asynchronously: %+v", s)
	}
	if s := byName["fireJoined"]; !s.Spawns || s.AsyncSpawn {
		t.Errorf("fireJoined should spawn but join before returning: %+v", s)
	}
	// An async spawn inherited through a callee stays async and names
	// the helper it came from.
	if s := byName["viaFire"]; !s.Spawns || !s.AsyncSpawn || s.Via != "fire" {
		t.Errorf("viaFire should inherit fire's async spawn: %+v", s)
	}
}
