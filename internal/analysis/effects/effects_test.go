package effects_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis/effects"
)

// check type-checks one source string under package name pkg.
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

func compute(t *testing.T, src string) (*effects.Result, *types.Info, *ast.File) {
	t.Helper()
	fset, f, info := check(t, src)
	return effects.Compute(fset, []*ast.File{f}, info, nil), info, f
}

func summaryOf(t *testing.T, res *effects.Result, name string) *effects.FuncEffects {
	t.Helper()
	for fn, s := range res.ByFunc {
		if fn.Name() == name {
			return s
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

func TestResourceSummaries(t *testing.T) {
	res, _, _ := compute(t, `package p

import (
	"io"
	"os"
)

func open(path string) (*os.File, error) {
	return os.Open(path)
}

func openVar(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func closes(c io.Closer) { c.Close() }

func closesDeferred(f *os.File) error {
	defer f.Close()
	return nil
}

type box struct{ f *os.File }

func (b *box) Close() error { return b.f.Close() }

func wrap(f *os.File) *box { return &box{f: f} }

func stores(sink map[string]io.Closer, name string, c io.Closer) {
	sink[name] = c
}
`)
	if s := summaryOf(t, res, "openVar"); len(s.Opens) != 1 || s.Opens[0].Result != 0 {
		t.Errorf("openVar: want Opens result 0, got %+v", s.Opens)
	}
	if s := summaryOf(t, res, "closes"); len(s.ClosesParams) != 1 || s.ClosesParams[0] != 0 {
		t.Errorf("closes: want ClosesParams [0], got %+v", s.ClosesParams)
	}
	if s := summaryOf(t, res, "closesDeferred"); len(s.ClosesParams) != 1 || s.ClosesParams[0] != 0 {
		t.Errorf("closesDeferred: want ClosesParams [0], got %+v", s.ClosesParams)
	}
	// wrap stores its param into a closer-owning struct and returns it:
	// both an ownership transfer and an open result.
	ws := summaryOf(t, res, "wrap")
	if len(ws.StoresParams) != 1 || ws.StoresParams[0] != 0 {
		t.Errorf("wrap: want StoresParams [0], got %+v", ws.StoresParams)
	}
	if len(ws.Opens) != 1 || ws.Opens[0].Result != 0 {
		t.Errorf("wrap: want Opens result 0, got %+v", ws.Opens)
	}
	if s := summaryOf(t, res, "stores"); len(s.StoresParams) != 1 || s.StoresParams[0] != 2 {
		t.Errorf("stores: want StoresParams [2], got %+v", s.StoresParams)
	}
}

func TestLeakFindings(t *testing.T) {
	fset, f, info := check(t, `package p

import "os"

func leaky(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var buf [8]byte
	if _, err := f.Read(buf[:]); err != nil {
		return err
	}
	return f.Close()
}

func clean(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf [8]byte
	_, err = f.Read(buf[:])
	return err
}
`)
	var leakyDecl, cleanDecl *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			switch fd.Name.Name {
			case "leaky":
				leakyDecl = fd
			case "clean":
				cleanDecl = fd
			}
		}
	}
	leaks := effects.LeakFindings(fset, info, leakyDecl, nil)
	if len(leaks) != 1 {
		t.Fatalf("leaky: want 1 leak, got %+v", leaks)
	}
	if len(leaks[0].Steps) < 2 {
		t.Errorf("leaky: want a source-to-exit path, got %+v", leaks[0].Steps)
	}
	if got := effects.LeakFindings(fset, info, cleanDecl, nil); len(got) != 0 {
		t.Errorf("clean: want no leaks, got %+v", got)
	}
}

func TestFactRoundTrip(t *testing.T) {
	res, _, _ := compute(t, `package p

import "os"

func open(path string) (*os.File, error) { return os.Open(path) }

func pure(n int) int { return n + 1 }
`)
	blob, err := res.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(blob) == 0 {
		t.Fatalf("encode: want non-empty fact blob")
	}
	decoded, err := effects.DecodeFact(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s, ok := decoded["p.open"]
	if !ok {
		t.Fatalf("decoded fact missing p.open: %v", decoded)
	}
	if len(s.Opens) != 1 || s.Opens[0].Result != 0 {
		t.Errorf("round-tripped summary: got %+v", s.Opens)
	}
	if _, ok := decoded["p.pure"]; ok {
		t.Errorf("empty summary of pure should not round-trip")
	}
}
