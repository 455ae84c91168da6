package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/cfg"
)

// Def is one definition site of a local variable: an assignment, a
// short declaration, a var spec, an inc/dec, a range binding, or a
// synthetic definition at function entry for parameters and named
// results (Site == nil for those).
type Def struct {
	Var   *types.Var
	Ident *ast.Ident // the defined identifier; nil for parameter defs
	Site  ast.Node   // the defining statement; nil for parameter defs
	Block *cfg.Block
}

// ReachingDefs is the forward may-problem "which definitions of each
// variable can reach this point". Build it once per function, then
// query with DefsAt.
type ReachingDefs struct {
	G    *cfg.CFG
	Defs []Def
	Res  Result[BitSet]

	info   *types.Info
	byVar  map[*types.Var][]int // def indices per variable
	gen    map[*cfg.Block]BitSet
	kill   map[*cfg.Block]BitSet
	params BitSet // synthetic entry defs
}

// NewReachingDefs collects every definition site in g and solves the
// problem. params lists the function's parameters, receiver, and named
// results, which are defined at entry.
func NewReachingDefs(g *cfg.CFG, info *types.Info, params []*types.Var) *ReachingDefs {
	rd := &ReachingDefs{G: g, info: info, byVar: map[*types.Var][]int{}}
	for _, p := range params {
		rd.addDef(Def{Var: p, Block: g.Blocks[0]})
	}
	nparams := len(rd.Defs)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			for _, d := range defsOfNode(info, n) {
				d.Block = b
				rd.addDef(d)
			}
		}
	}
	n := len(rd.Defs)
	rd.params = NewBitSet(n)
	for i := 0; i < nparams; i++ {
		rd.params = rd.params.With(i)
	}

	// gen/kill per block: a later definition of a variable in the same
	// block kills earlier ones; kill covers every other def of the
	// block's defined variables.
	rd.gen = map[*cfg.Block]BitSet{}
	rd.kill = map[*cfg.Block]BitSet{}
	for _, b := range g.Blocks {
		gen := NewBitSet(n)
		kill := NewBitSet(n)
		for i, d := range rd.Defs {
			if d.Block != b || d.Site == nil {
				continue
			}
			// Kill all defs of this variable, then gen this one.
			for _, j := range rd.byVar[d.Var] {
				if j != i {
					kill = kill.With(j)
					gen = gen.Without(j)
				}
			}
			gen = gen.With(i)
		}
		rd.gen[b] = gen
		rd.kill[b] = kill
	}
	rd.Res = Solve[BitSet](g, rd)
	return rd
}

func (rd *ReachingDefs) addDef(d Def) {
	i := len(rd.Defs)
	rd.Defs = append(rd.Defs, d)
	rd.byVar[d.Var] = append(rd.byVar[d.Var], i)
}

// Problem implementation: forward may-analysis, empty-set bottom.

func (rd *ReachingDefs) Boundary() BitSet { return rd.params.Clone() }
func (rd *ReachingDefs) Init() BitSet     { return NewBitSet(len(rd.Defs)) }
func (rd *ReachingDefs) Join(a, b BitSet) BitSet {
	return a.Union(b)
}
func (rd *ReachingDefs) Equal(a, b BitSet) bool { return a.Equal(b) }
func (rd *ReachingDefs) Transfer(b *cfg.Block, in BitSet) BitSet {
	return rd.gen[b].Union(in.Diff(rd.kill[b]))
}

// DefsAt returns the definitions of v that can reach the program point
// just before pos, walking the containing block's statements to apply
// intra-block kills. A nil result means v cannot be reached by any
// tracked definition there (e.g. pos is outside the graph).
func (rd *ReachingDefs) DefsAt(v *types.Var, pos token.Pos) []Def {
	b := rd.G.BlockOf(pos)
	if b == nil {
		return nil
	}
	state := rd.Res.In[b]
	for _, n := range b.Nodes {
		if n.Pos() <= pos && pos <= n.End() {
			break // defs of n itself take effect after it
		}
		for _, d := range defsOfNode(rd.info, n) {
			for _, i := range rd.byVar[d.Var] {
				if rd.Defs[i].Ident == d.Ident {
					for _, j := range rd.byVar[d.Var] {
						state = state.Without(j)
					}
					state = state.With(i)
					break
				}
			}
		}
	}
	var out []Def
	for _, i := range state.Elems() {
		if rd.Defs[i].Var == v {
			out = append(out, rd.Defs[i])
		}
	}
	return out
}

// defsOfNode extracts the variable definitions a single CFG node makes.
func defsOfNode(info *types.Info, n ast.Node) []Def {
	var out []Def
	add := func(id *ast.Ident, site ast.Node) {
		if id == nil || id.Name == "_" {
			return
		}
		v := varOf(info, id)
		if v == nil {
			return
		}
		out = append(out, Def{Var: v, Ident: id, Site: site})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				add(id, n)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						add(id, n)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		if id, ok := n.X.(*ast.Ident); ok {
			add(id, n)
		}
	case *ast.RangeStmt:
		if id, ok := n.Key.(*ast.Ident); ok {
			add(id, n)
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			add(id, n)
		}
	}
	return out
}

// varOf resolves an identifier to the local/package variable it
// denotes, or nil.
func varOf(info *types.Info, id *ast.Ident) *types.Var {
	if obj, ok := info.Defs[id]; ok {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}
