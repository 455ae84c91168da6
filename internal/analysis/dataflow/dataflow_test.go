package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis/cfg"
)

// --- Solver fixpoints on hand-built graphs -------------------------------

// diamond builds the graph entry→{b2,b3}→b4(exit-pred)→exit by hand:
//
//	0 entry → 2 3
//	1 exit
//	2 then  → 4
//	3 else  → 4
//	4 join  → 1
func diamond() *cfg.CFG {
	g := &cfg.CFG{}
	for i, kind := range []string{"entry", "exit", "then", "else", "join"} {
		g.Blocks = append(g.Blocks, &cfg.Block{Index: i, Kind: kind})
	}
	edge := func(from, to int) {
		g.Blocks[from].Succs = append(g.Blocks[from].Succs, g.Blocks[to])
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, g.Blocks[from])
	}
	edge(0, 2)
	edge(0, 3)
	edge(2, 4)
	edge(3, 4)
	edge(4, 1)
	return g
}

// loop builds entry→header; header→{body,exit-pred}; body→header.
func loopGraph() *cfg.CFG {
	g := &cfg.CFG{}
	for i, kind := range []string{"entry", "exit", "header", "body"} {
		g.Blocks = append(g.Blocks, &cfg.Block{Index: i, Kind: kind})
	}
	edge := func(from, to int) {
		g.Blocks[from].Succs = append(g.Blocks[from].Succs, g.Blocks[to])
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, g.Blocks[from])
	}
	edge(0, 2)
	edge(2, 3)
	edge(2, 1)
	edge(3, 2)
	return g
}

// genKillProblem is a forward may-problem over bit 0..n-1 with explicit
// per-block gen/kill sets — the skeleton of reaching definitions.
type genKillProblem struct {
	n         int
	gen, kill map[int]BitSet
}

func (p *genKillProblem) Boundary() BitSet        { return NewBitSet(p.n) }
func (p *genKillProblem) Init() BitSet            { return NewBitSet(p.n) }
func (p *genKillProblem) Join(a, b BitSet) BitSet { return a.Union(b) }
func (p *genKillProblem) Equal(a, b BitSet) bool  { return a.Equal(b) }
func (p *genKillProblem) Transfer(b *cfg.Block, in BitSet) BitSet {
	out := in
	if k, ok := p.kill[b.Index]; ok {
		out = out.Diff(k)
	}
	if g, ok := p.gen[b.Index]; ok {
		out = out.Union(g)
	}
	return out
}

// TestForwardFixpointDiamond: a def generated in the then-arm (bit 0)
// and one in the else-arm (bit 1) both reach the join; a def generated
// at entry (bit 2) and killed in the else-arm reaches the join too (may
// analysis) but is gone on the else edge.
func TestForwardFixpointDiamond(t *testing.T) {
	g := diamond()
	p := &genKillProblem{
		n: 3,
		gen: map[int]BitSet{
			0: NewBitSet(3).With(2),
			2: NewBitSet(3).With(0),
			3: NewBitSet(3).With(1),
		},
		kill: map[int]BitSet{3: NewBitSet(3).With(2)},
	}
	res := Solve[BitSet](g, p)
	join := g.Blocks[4]
	in := res.In[join]
	for bit, want := range map[int]bool{0: true, 1: true, 2: true} {
		if in.Has(bit) != want {
			t.Errorf("join in-set bit %d = %v, want %v", bit, in.Has(bit), want)
		}
	}
	elseOut := res.Out[g.Blocks[3]]
	if elseOut.Has(2) {
		t.Error("bit 2 must be killed on the else edge")
	}
	if !elseOut.Has(1) {
		t.Error("bit 1 must be generated on the else edge")
	}
}

// TestForwardFixpointLoop: a def generated in the loop body must flow
// around the back edge and appear in the header's in-set — the fixpoint
// requires a second pass over the header.
func TestForwardFixpointLoop(t *testing.T) {
	g := loopGraph()
	p := &genKillProblem{
		n:   1,
		gen: map[int]BitSet{3: NewBitSet(1).With(0)},
	}
	res := Solve[BitSet](g, p)
	if !res.In[g.Blocks[2]].Has(0) {
		t.Error("loop-body def must reach the header over the back edge")
	}
	if res.In[g.Blocks[0]].Has(0) {
		t.Error("def must not flow backward to entry")
	}
	if !res.In[g.Blocks[1]].Has(0) {
		t.Error("def must reach the exit via header")
	}
}

// --- Real-function instances ---------------------------------------------

// typeCheck parses one self-contained function and returns everything
// the instances need.
func typeCheck(t *testing.T, src string) (*ast.FuncDecl, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", "package p\n\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd, info, fset
		}
	}
	t.Fatal("no func")
	return nil, nil, nil
}

// findIdent locates the n-th identifier with the given name.
func findIdent(fd *ast.FuncDecl, name string, nth int) *ast.Ident {
	var found *ast.Ident
	count := 0
	ast.Inspect(fd, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if count == nth {
				found = id
			}
			count++
		}
		return true
	})
	return found
}

func TestReachingDefsConditionalRedefinition(t *testing.T) {
	fd, info, _ := typeCheck(t, `
func f(cond bool) int {
	x := 1
	if cond {
		x = 2
	}
	return x
}`)
	g := cfg.New(fd.Body)
	rd := NewReachingDefs(g, info, nil)

	// The x in `return x` can see both definitions.
	use := findIdent(fd, "x", 2) // x:=1 is 0, x=2 is 1, return x is 2
	if use == nil {
		t.Fatal("return-x ident not found")
	}
	xVar := varOf(info, use)
	if xVar == nil {
		t.Fatal("x did not resolve")
	}
	defs := rd.DefsAt(xVar, use.Pos())
	if len(defs) != 2 {
		t.Fatalf("DefsAt(return x) = %d defs, want 2 (both x:=1 and x=2 reach)", len(defs))
	}
}

func TestReachingDefsKillInBlock(t *testing.T) {
	fd, info, _ := typeCheck(t, `
func f() int {
	x := 1
	x = 2
	return x
}`)
	g := cfg.New(fd.Body)
	rd := NewReachingDefs(g, info, nil)
	use := findIdent(fd, "x", 2)
	xVar := varOf(info, use)
	defs := rd.DefsAt(xVar, use.Pos())
	if len(defs) != 1 {
		t.Fatalf("DefsAt(return x) = %d defs, want 1 (x=2 kills x:=1 in-block)", len(defs))
	}
	if as, ok := defs[0].Site.(*ast.AssignStmt); !ok || as.Tok != token.ASSIGN {
		t.Errorf("surviving def is %T/%v, want the plain assignment", defs[0].Site, defs[0].Site)
	}
}
