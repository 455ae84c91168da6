package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// The taint lattice: a value's taint is the set of origins that may
// flow into it — parameter i (bit i) and the untrusted wire (SourceBit).
// Joins union masks; a bounding comparison against an untainted limit
// kills the whole taint of the compared variable on the safe edge.

const sourceBit = 62

// Step is one hop of a taint path, kept as an immutable chain so
// diagnostics can replay source→sink.
type Step struct {
	prev *Step
	Pos  token.Pos
	What string
}

// Taint is the origin set of one value plus the path that produced it.
type Taint struct {
	mask  uint64
	chain *Step
}

// Tainted reports any origin at all.
func (t Taint) Tainted() bool { return t.mask != 0 }

// FromSource reports an untrusted wire read among the origins.
func (t Taint) FromSource() bool { return t.mask&(1<<sourceBit) != 0 }

// ParamBits lists the parameter indices among the origins, ascending.
func (t Taint) ParamBits() []int {
	var out []int
	for i := 0; i < sourceBit; i++ {
		if t.mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Steps returns the recorded path in source→latest order.
func (t Taint) Steps() []Step {
	var rev []Step
	for s := t.chain; s != nil; s = s.prev {
		rev = append(rev, *s)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (t Taint) step(pos token.Pos, what string) Taint {
	if t.mask == 0 {
		return t
	}
	return Taint{mask: t.mask, chain: &Step{prev: t.chain, Pos: pos, What: what}}
}

func unionT(ts ...Taint) Taint {
	var out Taint
	for _, t := range ts {
		out.mask |= t.mask
		if out.chain == nil {
			out.chain = t.chain
		}
	}
	return out
}

type state map[*types.Var]Taint

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinInto merges add into cur (nil cur allowed), returning the merged
// state and whether cur's masks changed. Chains of already-present
// entries are kept so paths stay stable across fixpoint rounds.
func joinInto(cur, add state) (state, bool) {
	if cur == nil {
		return add.clone(), true
	}
	changed := false
	var out state
	for v, t := range add {
		old, ok := cur[v]
		if ok && old.mask|t.mask == old.mask {
			continue
		}
		if out == nil {
			out = cur.clone()
		}
		merged := Taint{mask: old.mask | t.mask, chain: old.chain}
		if merged.chain == nil {
			merged.chain = t.chain
		}
		out[v] = merged
		changed = true
	}
	if !changed {
		return cur, false
	}
	return out, true
}

// SinkHit is one tainted value reaching an allocation-shaped sink.
type SinkHit struct {
	Pos   token.Pos
	What  string
	Taint Taint
	// Callee/CalleeSink are set when the sink is a call argument
	// feeding a summarized sink parameter of the callee.
	Callee     *types.Func
	CalleeSink *SinkParam
}

// NarrowHit is a value-changing integer conversion of a tainted value
// (uint64→int and friends) — sizeoverflow's first rule.
type NarrowHit struct {
	Pos      token.Pos
	From, To types.Type
	Taint    Taint
}

// ProductHit is a multiplication or left shift involving a
// source-tainted operand — sizeoverflow's second rule.
type ProductHit struct {
	Pos   token.Pos
	Op    token.Token
	Taint Taint
}

// Flow is the engine's output for one function.
type Flow struct {
	Decl       *ast.FuncDecl
	Sinks      []SinkHit
	Narrowings []NarrowHit
	Products   []ProductHit

	fset        *token.FileSet
	params      []*types.Var
	resultMasks []uint64
	sinkSeen    map[sinkKey]bool
}

type sinkKey struct {
	pos  token.Pos
	what string
}

// Summary distills the flow into the FuncSummary callers consume.
func (f *Flow) Summary() *FuncSummary {
	sum := &FuncSummary{Params: len(f.params)}
	for _, mask := range f.resultMasks {
		rf := ReturnFlow{Source: mask&(1<<sourceBit) != 0}
		rf.Params = Taint{mask: mask}.ParamBits()
		sum.ReturnFlows = append(sum.ReturnFlows, rf)
	}
	seen := map[SinkParam]bool{}
	for _, hit := range f.Sinks {
		what, via := hit.What, ""
		pos := toPosition(f.fset.Position(hit.Pos))
		if hit.CalleeSink != nil {
			what = hit.CalleeSink.What
			via = hit.Callee.Name()
			if hit.CalleeSink.Via != "" {
				via += " → " + hit.CalleeSink.Via
			}
			pos = hit.CalleeSink.Pos
		}
		for _, p := range hit.Taint.ParamBits() {
			sp := SinkParam{Param: p, What: what, Pos: pos, Via: via}
			if !seen[sp] {
				seen[sp] = true
				sum.SinkParams = append(sum.SinkParams, sp)
			}
		}
	}
	return sum
}

// Engine runs edge-sensitive forward taint propagation over one
// function body: a worklist fixpoint over per-block entry states, with
// bounding comparisons killing taint on the guarded edge (the cfg
// builder's successor convention — Succs[0] is the true edge of an if
// condition or for header — supplies the polarity). A final
// deterministic sweep re-walks every reachable block with its fixpoint
// entry state and records sinks, narrowings, products and return flows.
type Engine struct {
	Fset   *token.FileSet
	Info   *types.Info
	Lookup Lookup

	flow     *Flow
	results  []*types.Var
	record   bool
	condSet  map[ast.Expr]bool // If/For condition expressions (kill sites)
	forConds map[ast.Expr]bool // For conditions whose body allocates
}

// sourceFuncs are the untrusted wire reads: FullName → tainted result
// index. Per-byte reads are excluded — a single byte is bounded by its
// type.
var sourceFuncs = map[string]int{
	"encoding/binary.ReadUvarint": 0,
	"encoding/binary.ReadVarint":  0,
	"encoding/binary.Uvarint":     0,
	"encoding/binary.Varint":      0,
}

// sinkCalls are well-known allocation-driving call arguments:
// FullName → (argument index, description).
var sinkCalls = map[string]struct {
	arg  int
	what string
}{
	"(*bytes.Buffer).Grow":    {0, "bytes.Buffer.Grow size"},
	"(*strings.Builder).Grow": {0, "strings.Builder.Grow size"},
	"io.CopyN":                {2, "io.CopyN length"},
}

// Run analyzes one declaration. Parameters are seeded with their own
// taint bit, so a single run yields both the function's summary (param
// flows) and its source-originated findings (wire taint).
func (e *Engine) Run(decl *ast.FuncDecl) *Flow {
	e.flow = &Flow{
		Decl:     decl,
		fset:     e.Fset,
		params:   paramVars(decl, e.Info),
		sinkSeen: map[sinkKey]bool{},
	}
	e.results = resultVars(decl, e.Info)
	if decl.Type.Results != nil {
		// Count flattened results: a field may declare several names.
		n := 0
		for _, f := range decl.Type.Results.List {
			if len(f.Names) == 0 {
				n++
			} else {
				n += len(f.Names)
			}
		}
		e.flow.resultMasks = make([]uint64, n)
	}
	if decl.Body == nil {
		return e.flow
	}
	e.condSet = map[ast.Expr]bool{}
	e.forConds = map[ast.Expr]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			e.condSet[x.Cond] = true
		case *ast.ForStmt:
			if x.Cond != nil {
				e.condSet[x.Cond] = true
				e.forConds[x.Cond] = bodyAllocates(x.Body)
			}
		case *ast.FuncLit:
			return false // literals get their own frame; not descended
		}
		return true
	})

	g := cfg.New(decl.Body)
	seed := state{}
	for i, p := range e.flow.params {
		if p == nil || i >= sourceBit || !isIntegerKind(p.Type()) {
			continue
		}
		seed[p] = Taint{
			mask:  1 << uint(i),
			chain: &Step{Pos: p.Pos(), What: "parameter " + p.Name()},
		}
	}

	in := map[*cfg.Block]state{g.Blocks[0]: seed}
	work := []*cfg.Block{g.Blocks[0]}
	e.record = false
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		s := in[b].clone()
		for _, n := range b.Nodes {
			e.node(n, s)
		}
		cond := e.branchCond(b)
		for i, succ := range b.Succs {
			es := s
			if cond != nil {
				if killed := e.boundedVars(cond, i == 0, s); len(killed) > 0 {
					es = s.clone()
					for _, v := range killed {
						delete(es, v)
					}
				}
			}
			if merged, changed := joinInto(in[succ], es); changed {
				in[succ] = merged
				work = append(work, succ)
			}
		}
	}

	e.record = true
	for _, b := range g.Blocks {
		s, ok := in[b]
		if !ok {
			continue // unreachable
		}
		s = s.clone()
		for _, n := range b.Nodes {
			e.node(n, s)
		}
	}
	return e.flow
}

// branchCond returns the block's trailing If/For condition when its two
// successors are that condition's true and false edges.
func (e *Engine) branchCond(b *cfg.Block) ast.Expr {
	if len(b.Succs) != 2 || len(b.Nodes) == 0 {
		return nil
	}
	expr, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr)
	if !ok || !e.condSet[expr] {
		return nil
	}
	return expr
}

// node applies one block node to the state (and records findings when
// e.record is set).
func (e *Engine) node(n ast.Node, s state) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		e.assign(x, s)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					e.valueSpec(vs, s)
				}
			}
		}
	case *ast.ReturnStmt:
		e.returnStmt(x, s)
	case *ast.IncDecStmt:
		e.eval(x.X, s)
	case *ast.ExprStmt:
		e.eval(x.X, s)
	case *ast.GoStmt:
		e.eval(x.Call, s)
	case *ast.DeferStmt:
		e.eval(x.Call, s)
	case *ast.SendStmt:
		e.eval(x.Chan, s)
		e.eval(x.Value, s)
	case *ast.RangeStmt:
		e.eval(x.X, s)
		for _, lhs := range []ast.Expr{x.Key, x.Value} {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if v := e.varOf(id); v != nil {
					delete(s, v) // fresh per-iteration binding, data not size
				}
			}
		}
	case *ast.LabeledStmt:
		e.node(x.Stmt, s)
	case ast.Expr:
		e.eval(x, s)
		if e.record && e.forConds[x] {
			e.loopBoundSink(x, s)
		}
	}
}

// loopBoundSink flags a for condition comparing against a tainted bound
// when the loop body allocates: the attacker-controlled trip count
// drives unbounded append growth.
func (e *Engine) loopBoundSink(cond ast.Expr, s state) {
	var t Taint
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !isComparison(be.Op) {
			return true
		}
		t = unionT(t, e.evalNoRecord(be.X, s), e.evalNoRecord(be.Y, s))
		return true
	})
	e.sink(cond.Pos(), "allocating loop bound", t, nil, nil)
}

func (e *Engine) assign(x *ast.AssignStmt, s state) {
	// Evaluate non-ident targets too: arr[i] = v is an index sink.
	for _, lhs := range x.Lhs {
		if _, ok := lhs.(*ast.Ident); !ok {
			e.eval(lhs, s)
		}
	}
	var taints []Taint
	if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
		taints = e.evalMulti(x.Rhs[0], len(x.Lhs), s)
	} else {
		for _, rhs := range x.Rhs {
			taints = append(taints, e.eval(rhs, s))
		}
	}
	for i, lhs := range x.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || i >= len(taints) {
			continue
		}
		v := e.varOf(id)
		if v == nil {
			continue
		}
		t := taints[i]
		if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
			t = unionT(s[v], t) // compound assignment keeps old taint
		}
		e.setVar(s, v, t, x.Pos())
	}
}

func (e *Engine) valueSpec(vs *ast.ValueSpec, s state) {
	var taints []Taint
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		taints = e.evalMulti(vs.Values[0], len(vs.Names), s)
	} else {
		for _, val := range vs.Values {
			taints = append(taints, e.eval(val, s))
		}
	}
	for i, name := range vs.Names {
		if name.Name == "_" {
			continue
		}
		v := e.varOf(name)
		if v == nil {
			continue
		}
		var t Taint
		if i < len(taints) {
			t = taints[i]
		}
		e.setVar(s, v, t, vs.Pos())
	}
}

func (e *Engine) setVar(s state, v *types.Var, t Taint, pos token.Pos) {
	if t.mask == 0 {
		delete(s, v)
		return
	}
	s[v] = t.step(pos, "flows into "+v.Name())
}

func (e *Engine) returnStmt(x *ast.ReturnStmt, s state) {
	if len(x.Results) == 0 {
		if !e.record {
			return
		}
		for i, rv := range e.results {
			if rv != nil && i < len(e.flow.resultMasks) {
				e.flow.resultMasks[i] |= s[rv].mask
			}
		}
		return
	}
	var taints []Taint
	if len(x.Results) == 1 && len(e.flow.resultMasks) > 1 {
		taints = e.evalMulti(x.Results[0], len(e.flow.resultMasks), s)
	} else {
		for _, r := range x.Results {
			taints = append(taints, e.eval(r, s))
		}
	}
	if !e.record {
		return
	}
	for i, t := range taints {
		if i < len(e.flow.resultMasks) {
			e.flow.resultMasks[i] |= t.mask
		}
	}
}

// eval computes the taint of an expression, recursing through children
// so every sink position in the expression tree is visited.
func (e *Engine) eval(x ast.Expr, s state) Taint {
	switch x := x.(type) {
	case *ast.Ident:
		if v := e.varOf(x); v != nil {
			return s[v]
		}
	case *ast.ParenExpr:
		return e.eval(x.X, s)
	case *ast.BinaryExpr:
		if x.Op == token.LAND || x.Op == token.LOR {
			// Short-circuit: y only evaluates when x is true (&&) or
			// false (||), so x's bounds are in force for y — this is what
			// makes the idiom `a >= uint64(n) || seen[a]` safe.
			e.eval(x.X, s)
			sy := s
			if killed := e.boundedVars(x.X, x.Op == token.LAND, s); len(killed) > 0 {
				sy = s.clone()
				for _, v := range killed {
					delete(sy, v)
				}
			}
			e.eval(x.Y, sy)
			return Taint{}
		}
		l := e.eval(x.X, s)
		r := e.eval(x.Y, s)
		switch x.Op {
		case token.EQL, token.NEQ,
			token.LSS, token.LEQ, token.GTR, token.GEQ:
			return Taint{}
		case token.MUL, token.SHL:
			t := unionT(l, r)
			if e.record && t.FromSource() {
				e.flow.Products = append(e.flow.Products, ProductHit{Pos: x.OpPos, Op: x.Op, Taint: t})
			}
			return t
		}
		return unionT(l, r)
	case *ast.UnaryExpr:
		t := e.eval(x.X, s)
		switch x.Op {
		case token.ADD, token.SUB, token.XOR:
			return t
		}
		return Taint{}
	case *ast.CallExpr:
		ts := e.evalCall(x, s)
		if len(ts) > 0 {
			return ts[0]
		}
	case *ast.IndexExpr:
		base := e.eval(x.X, s)
		_ = base
		if tv, ok := e.Info.Types[x.Index]; ok && tv.IsType() {
			return Taint{} // generic instantiation, not an index
		}
		idx := e.eval(x.Index, s)
		if e.record && idx.Tainted() && indexableSeq(e.Info.TypeOf(x.X)) {
			e.sink(x.Index.Pos(), "index", idx, nil, nil)
		}
	case *ast.IndexListExpr:
		return Taint{} // generic instantiation
	case *ast.SliceExpr:
		e.eval(x.X, s)
		for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
			if bound == nil {
				continue
			}
			t := e.eval(bound, s)
			if e.record && t.Tainted() {
				e.sink(bound.Pos(), "slice bound", t, nil, nil)
			}
		}
	case *ast.StarExpr:
		e.eval(x.X, s)
	case *ast.SelectorExpr:
		// Field read or qualified constant: data, not a tracked size.
		if _, isSel := e.Info.Selections[x]; isSel {
			e.eval(x.X, s)
		}
	case *ast.TypeAssertExpr:
		e.eval(x.X, s)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			e.eval(elt, s)
		}
	case *ast.KeyValueExpr:
		e.eval(x.Key, s)
		e.eval(x.Value, s)
	}
	return Taint{}
}

func (e *Engine) evalNoRecord(x ast.Expr, s state) Taint {
	saved := e.record
	e.record = false
	t := e.eval(x, s)
	e.record = saved
	return t
}

// evalMulti evaluates a tuple-producing expression (call, type assert,
// map index) to n taints.
func (e *Engine) evalMulti(x ast.Expr, n int, s state) []Taint {
	if call, ok := unparen(x).(*ast.CallExpr); ok {
		ts := e.evalCall(call, s)
		for len(ts) < n {
			ts = append(ts, Taint{})
		}
		return ts
	}
	e.eval(x, s)
	return make([]Taint, n)
}

// evalCall handles conversions, builtins, known sources and sinks, and
// summarized callees. It always evaluates the arguments (nested sinks),
// then derives result taints.
func (e *Engine) evalCall(call *ast.CallExpr, s state) []Taint {
	// Builtins first: StaticCallee classifies them as non-calls, but
	// make's size arguments are sinks and min/max transfer taint.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := e.Info.Uses[id].(*types.Builtin); ok {
			return e.evalBuiltin(b.Name(), call, s)
		}
	}

	callee, dynamic, isCall := callgraph.StaticCallee(e.Info, call)

	if !isCall {
		// Type conversion: taint flows through; a value-changing
		// integer conversion of a tainted value is a narrowing hit.
		if len(call.Args) != 1 {
			return []Taint{{}}
		}
		t := e.eval(call.Args[0], s)
		from := e.Info.TypeOf(call.Args[0])
		to := e.Info.TypeOf(call)
		if e.record && t.Tainted() && isNarrowing(from, to) {
			e.flow.Narrowings = append(e.flow.Narrowings, NarrowHit{
				Pos: call.Pos(), From: from, To: to, Taint: t,
			})
		}
		return []Taint{t}
	}

	var argTaints []Taint
	args := call.Args
	if callee != nil && callee.Type() != nil {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, isSel := e.Info.Selections[sel]; isSel {
					args = append([]ast.Expr{sel.X}, call.Args...)
				}
			}
		}
	}
	for _, a := range args {
		argTaints = append(argTaints, e.eval(a, s))
	}

	nres := e.resultCount(call)
	results := make([]Taint, nres)
	if callee == nil || dynamic {
		return results
	}
	full := callee.FullName()

	// Well-known allocation sinks. sk.arg indexes call.Args; argTaints
	// may be shifted by a prepended method receiver.
	if sk, ok := sinkCalls[full]; ok && sk.arg < len(call.Args) {
		off := len(args) - len(call.Args)
		e.sink(call.Args[sk.arg].Pos(), sk.what, argTaints[sk.arg+off], nil, nil)
	}

	// Untrusted wire sources.
	if idx, ok := sourceFuncs[full]; ok && idx < nres {
		results[idx] = Taint{
			mask:  1 << sourceBit,
			chain: &Step{Pos: call.Pos(), What: "untrusted wire read (" + callee.Name() + ")"},
		}
		return results
	}

	sum := e.lookup(callee)
	if sum == nil {
		return results
	}

	// Callee sink parameters: a tainted argument reaches the callee's
	// allocation unguarded.
	for i := range sum.SinkParams {
		sp := &sum.SinkParams[i]
		if sp.Param >= len(argTaints) {
			continue
		}
		t := argTaints[sp.Param]
		if !t.Tainted() {
			continue
		}
		pos := call.Pos()
		if sp.Param < len(args) {
			pos = args[sp.Param].Pos()
		}
		e.sink(pos, sp.What, t.step(pos, "passed to "+callee.Name()), callee, sp)
	}

	// Param→result and source→result flows.
	for i, rf := range sum.ReturnFlows {
		if i >= nres {
			break
		}
		var t Taint
		for _, p := range rf.Params {
			if p < len(argTaints) {
				t = unionT(t, argTaints[p])
			}
		}
		if rf.Source {
			t = unionT(t, Taint{
				mask:  1 << sourceBit,
				chain: &Step{Pos: call.Pos(), What: "untrusted wire value returned by " + callee.Name()},
			})
		}
		if t.Tainted() {
			t = t.step(call.Pos(), "returned by "+callee.Name())
		}
		results[i] = t
	}
	return results
}

func (e *Engine) evalBuiltin(name string, call *ast.CallExpr, s state) []Taint {
	var argTaints []Taint
	for _, a := range call.Args {
		argTaints = append(argTaints, e.eval(a, s))
	}
	switch name {
	case "make":
		// make(T, len[, cap]): both size arguments are sinks.
		if len(call.Args) > 1 {
			e.sink(call.Args[1].Pos(), "make size", argTaints[1], nil, nil)
		}
		if len(call.Args) > 2 {
			e.sink(call.Args[2].Pos(), "make capacity", argTaints[2], nil, nil)
		}
		return []Taint{{}}
	case "min":
		// One bounded argument bounds the result.
		for _, t := range argTaints {
			if !t.Tainted() {
				return []Taint{{}}
			}
		}
		return []Taint{unionT(argTaints...)}
	case "max":
		return []Taint{unionT(argTaints...)}
	case "len", "cap":
		return []Taint{{}}
	}
	return []Taint{{}}
}

func (e *Engine) lookup(fn *types.Func) *FuncSummary {
	if e.Lookup == nil {
		return nil
	}
	return e.Lookup(fn)
}

func (e *Engine) resultCount(call *ast.CallExpr) int {
	tv, ok := e.Info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len()
	default:
		if t == nil {
			return 0
		}
		return 1
	}
}

func (e *Engine) sink(pos token.Pos, what string, t Taint, callee *types.Func, sp *SinkParam) {
	if !e.record || !t.Tainted() {
		return
	}
	k := sinkKey{pos, what}
	if e.flow.sinkSeen[k] {
		return
	}
	e.flow.sinkSeen[k] = true
	hit := SinkHit{Pos: pos, What: what, Taint: t, Callee: callee}
	if sp != nil {
		cp := *sp
		hit.CalleeSink = &cp
	}
	e.flow.Sinks = append(e.flow.Sinks, hit)
}

// boundedVars returns the variables a condition proves bounded on one
// edge (polarity true = the condition held). A comparison bounds its
// variable side only when the other side is untainted in the current
// state — `if a > b` with both tainted proves nothing.
func (e *Engine) boundedVars(cond ast.Expr, polarity bool, s state) []*types.Var {
	switch x := unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if polarity {
				return append(e.boundedVars(x.X, true, s), e.boundedVars(x.Y, true, s)...)
			}
			return nil
		case token.LOR:
			if !polarity {
				return append(e.boundedVars(x.X, false, s), e.boundedVars(x.Y, false, s)...)
			}
			return nil
		case token.LSS, token.LEQ: // l < r
			if polarity {
				return e.boundSide(x.X, x.Y, s)
			}
			return e.boundSide(x.Y, x.X, s) // !(l<r) ⇒ r ≤ l
		case token.GTR, token.GEQ: // l > r
			if polarity {
				return e.boundSide(x.Y, x.X, s)
			}
			return e.boundSide(x.X, x.Y, s)
		case token.EQL:
			if polarity {
				return append(e.boundSide(x.X, x.Y, s), e.boundSide(x.Y, x.X, s)...)
			}
			return nil
		case token.NEQ:
			if !polarity {
				return append(e.boundSide(x.X, x.Y, s), e.boundSide(x.Y, x.X, s)...)
			}
			return nil
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return e.boundedVars(x.X, !polarity, s)
		}
	}
	return nil
}

// boundSide reports target's variable as bounded when the bounding side
// is untainted.
func (e *Engine) boundSide(target, bound ast.Expr, s state) []*types.Var {
	v := e.varOfExpr(target)
	if v == nil {
		return nil
	}
	if e.evalNoRecord(bound, s).Tainted() {
		return nil
	}
	return []*types.Var{v}
}

// varOfExpr unwraps parens and single-argument conversions to the
// underlying variable: `uint64(nrows) > maxRows` bounds nrows.
func (e *Engine) varOfExpr(x ast.Expr) *types.Var {
	for {
		switch cur := x.(type) {
		case *ast.ParenExpr:
			x = cur.X
		case *ast.CallExpr:
			if _, _, isCall := callgraph.StaticCallee(e.Info, cur); !isCall && len(cur.Args) == 1 {
				x = cur.Args[0]
				continue
			}
			return nil
		case *ast.Ident:
			return e.varOf(cur)
		default:
			return nil
		}
	}
}

func (e *Engine) varOf(id *ast.Ident) *types.Var {
	if v, ok := e.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := e.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

func unparen(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// bodyAllocates reports whether a loop body grows memory per iteration:
// an append or make anywhere inside (function literals excluded).
func bodyAllocates(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if id.Name == "append" || id.Name == "make" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// indexableSeq reports types where a wild index panics: slices, arrays,
// strings — not maps (a missing key is a zero value, not a crash).
func indexableSeq(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, isArr := u.Elem().Underlying().(*types.Array)
		return isArr
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// isNarrowing reports a value-changing integer conversion: a smaller
// target width, or a signedness flip at the same width (uint64→int
// wraps a huge wire count to a negative index).
func isNarrowing(from, to types.Type) bool {
	fb, ok := basicInt(from)
	if !ok {
		return false
	}
	tb, ok := basicInt(to)
	if !ok {
		return false
	}
	fw, fs := intWidth(fb)
	tw, ts := intWidth(tb)
	if tw < fw {
		return true
	}
	return tw == fw && fs != ts
}

func basicInt(t types.Type) (*types.Basic, bool) {
	if t == nil {
		return nil, false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil, false
	}
	return b, true
}

// intWidth returns (bits, signed); int/uint/uintptr are treated as
// 64-bit, the width on every platform SPARTAN targets.
func intWidth(b *types.Basic) (int, bool) {
	switch b.Kind() {
	case types.Int8:
		return 8, true
	case types.Int16:
		return 16, true
	case types.Int32, types.UntypedRune:
		return 32, true
	case types.Int, types.Int64, types.UntypedInt:
		return 64, true
	case types.Uint8:
		return 8, false
	case types.Uint16:
		return 16, false
	case types.Uint32:
		return 32, false
	case types.Uint, types.Uint64, types.Uintptr:
		return 64, false
	}
	return 64, true
}
