// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, on the standard library alone. It is the foundation
// of spartanvet's flow-sensitive analyzers (nilflow, deferloop,
// hotalloc, closeleak): the AST pattern checks of the first analyzer
// generation cannot see that a value is used only on the error path,
// or that a handle leaks when an early return skips its Close — a CFG
// can.
//
// The graph decomposes a *ast.BlockStmt into basic blocks of
// straight-line statements connected by edges for every Go control
// construct: if/else, for (all three clauses), range, switch with
// fallthrough, type switch, select (with and without default), labeled
// break/continue, goto, return, and calls that never return (panic,
// os.Exit, log.Fatal*, runtime.Goexit). Function literals are opaque:
// a FuncLit is an expression in its enclosing block, and its own body
// gets its own CFG.
//
// Block 0 is the entry, block 1 the exit; every return edge targets the
// exit. Blocks whose terminator cannot complete (panic and friends) have
// no successors. Deferred calls do not alter edges — they are collected
// in CFG.Defers so analyzers can reason about them explicitly.
package cfg

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every basic block; Blocks[0] is the entry and
	// Blocks[1] the synthetic exit that all returns target. Blocks
	// created for unreachable code have no predecessors.
	Blocks []*Block
	// Defers lists every defer statement in the function, in source
	// order. Deferred calls run at every exit (including panics), which
	// no edge set can express; analyzers consult this list instead.
	Defers []*ast.DeferStmt
}

// Block is a maximal run of straight-line statements.
type Block struct {
	Index int
	// Kind names the construct that created the block ("entry", "exit",
	// "if.then", "for.body", "select.comm", ...) for dumps and tests.
	Kind string
	// Nodes holds the block's statements and decomposed expressions in
	// execution order: plain statements appear whole, while control
	// statements contribute only the parts evaluated in this block (an
	// if condition, a switch tag, a whole RangeStmt in its loop header).
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// NoReturnCall reports whether call can never return: the panic builtin
// and the conventional process/goroutine terminators. The spartanvet
// analyzers use it so code after `log.Fatal` is not treated as a live
// path.
func NoReturnCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		recv, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch recv.Name + "." + fun.Sel.Name {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
		// testing.T/B/F failure methods stop the goroutine via
		// runtime.Goexit. The builder has no type information, so this
		// is syntactic: Fatal* / FailNow on any receiver (the names are
		// unambiguous), Skip* only on the conventional t/b/f/tb
		// receivers (Skip is a common method name elsewhere).
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "FailNow":
			return true
		case "Skip", "Skipf", "SkipNow":
			switch recv.Name {
			case "t", "b", "f", "tb":
				return true
			}
		}
	}
	return false
}

// New builds the CFG of body. It never fails: syntactically valid
// bodies always decompose, and unreachable statements land in blocks
// with no predecessors.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}}
	entry := b.newBlock("entry")
	exit := b.newBlock("exit")
	b.exit = exit
	b.current = entry
	b.stmt(body)
	// Falling off the end of the body is an implicit return.
	b.jump(exit)
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

type builder struct {
	cfg     *CFG
	exit    *Block
	current *Block
	// targets is the innermost enclosing break/continue/fallthrough
	// scope; labels maps label names to their pre-created blocks.
	targets *targets
	labels  map[string]*labelBlock
}

// targets is one level of the break/continue/fallthrough scope stack.
type targets struct {
	outer        *targets
	breakTarget  *Block
	contTarget   *Block
	fallthroughT *Block
}

// labelBlock holds the jump targets a label can name.
type labelBlock struct {
	gotoTarget  *Block
	breakTarget *Block
	contTarget  *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump adds an edge current→target and leaves current dead; start a new
// block before emitting more nodes.
func (b *builder) jump(target *Block) {
	if b.current != nil {
		b.current.Succs = append(b.current.Succs, target)
		b.current = nil
	}
}

// startBlock makes blk the current block (for code following a jump).
func (b *builder) startBlock(blk *Block) {
	b.current = blk
}

// add appends a node to the current block, reviving an unreachable
// block for dead code so the statements are still recorded.
func (b *builder) add(n ast.Node) {
	if b.current == nil {
		b.current = b.newBlock("unreachable")
	}
	b.current.Nodes = append(b.current.Nodes, n)
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, "")

	case *ast.RangeStmt:
		b.rangeStmt(s, "")

	case *ast.SwitchStmt:
		b.switchStmt(s, "")

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")

	case *ast.SelectStmt:
		b.selectStmt(s, "")

	case *ast.LabeledStmt:
		b.labeledStmt(s)

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && NoReturnCall(call) {
			// The statement cannot complete; the block dead-ends.
			b.current = nil
		}

	case *ast.EmptyStmt:
		// no node

	default:
		// Assignments, declarations, sends, go, inc/dec: straight-line.
		b.add(s)
	}
}

// branch resolves break/continue/goto/fallthrough to its target block.
func (b *builder) branch(s *ast.BranchStmt) {
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil {
				target = lb.breakTarget
			}
		} else {
			for t := b.targets; t != nil; t = t.outer {
				if t.breakTarget != nil {
					target = t.breakTarget
					break
				}
			}
		}
	case token.CONTINUE:
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil {
				target = lb.contTarget
			}
		} else {
			for t := b.targets; t != nil; t = t.outer {
				if t.contTarget != nil {
					target = t.contTarget
					break
				}
			}
		}
	case token.FALLTHROUGH:
		for t := b.targets; t != nil; t = t.outer {
			if t.fallthroughT != nil {
				target = t.fallthroughT
				break
			}
		}
	case token.GOTO:
		if s.Label != nil {
			target = b.labelFor(s.Label.Name).gotoTarget
		}
	}
	b.add(s)
	if target != nil {
		b.jump(target)
	} else {
		b.current = nil // malformed branch: treat as dead end
	}
}

// labelFor returns (creating on first use, for forward gotos) the label
// record for name.
func (b *builder) labelFor(name string) *labelBlock {
	if b.labels == nil {
		b.labels = map[string]*labelBlock{}
	}
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlock{gotoTarget: b.newBlock("label." + name)}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	lb := b.labelFor(s.Label.Name)
	b.jump(lb.gotoTarget)
	b.startBlock(lb.gotoTarget)
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		// A label on a plain statement is only a goto target.
		b.stmt(s.Stmt)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	condBlock := b.current
	thenBlock := b.newBlock("if.then")
	done := b.newBlock("if.done")
	b.jump(thenBlock)

	elseBlock := done
	if s.Else != nil {
		elseBlock = b.newBlock("if.else")
	}
	condBlock.Succs = append(condBlock.Succs, elseBlock)

	b.startBlock(thenBlock)
	b.stmt(s.Body)
	b.jump(done)

	if s.Else != nil {
		b.startBlock(elseBlock)
		b.stmt(s.Else)
		b.jump(done)
	}
	b.startBlock(done)
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	header := b.newBlock("for.header")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := header
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.jump(header)
	b.startBlock(header)
	if s.Cond != nil {
		b.add(s.Cond)
		header.Succs = append(header.Succs, body, done)
		b.current = nil
	} else {
		b.jump(body) // `for {` loops unconditionally
	}
	b.setLabel(label, done, post)
	b.targets = &targets{outer: b.targets, breakTarget: done, contTarget: post}
	b.startBlock(body)
	b.stmt(s.Body)
	b.jump(post)
	b.targets = b.targets.outer
	if s.Post != nil {
		b.startBlock(post)
		b.stmt(s.Post)
		b.jump(header)
	}
	b.startBlock(done)
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	// The range expression is evaluated once, before iteration; the
	// header block carries the whole RangeStmt as its node (per-iteration
	// key/value assignment happens there).
	header := b.newBlock("range.header")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.jump(header)
	b.startBlock(header)
	b.add(s)
	b.current.Succs = append(b.current.Succs, body, done)
	b.current = nil
	b.setLabel(label, done, header)
	b.targets = &targets{outer: b.targets, breakTarget: done, contTarget: header}
	b.startBlock(body)
	b.stmt(s.Body)
	b.jump(header)
	b.targets = b.targets.outer
	b.startBlock(done)
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.current
	if head == nil {
		head = b.newBlock("switch.head")
		b.startBlock(head)
	}
	done := b.newBlock("switch.done")
	b.setLabel(label, done, nil)
	b.caseClauses(head, s.Body, done, "switch")
	b.startBlock(done)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Assign != nil {
		b.add(s.Assign)
	}
	head := b.current
	if head == nil {
		head = b.newBlock("typeswitch.head")
		b.startBlock(head)
	}
	done := b.newBlock("typeswitch.done")
	b.setLabel(label, done, nil)
	b.caseClauses(head, s.Body, done, "typeswitch")
	b.startBlock(done)
}

// caseClauses wires head to one block per case clause; fallthrough in a
// clause body targets the next clause's body. Without a default clause,
// head also flows to done.
func (b *builder) caseClauses(head *Block, body *ast.BlockStmt, done *Block, kind string) {
	var clauses []*ast.CaseClause
	for _, st := range body.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		name := kind + ".case"
		if cc.List == nil {
			name = kind + ".default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(name)
		head.Succs = append(head.Succs, blocks[i])
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	b.current = nil
	for i, cc := range clauses {
		var ft *Block
		if i+1 < len(clauses) {
			ft = blocks[i+1]
		}
		b.targets = &targets{outer: b.targets, breakTarget: done, fallthroughT: ft}
		b.startBlock(blocks[i])
		for _, n := range cc.List {
			b.add(n) // case expressions are evaluated in the clause block
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.jump(done)
		b.targets = b.targets.outer
	}
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.current
	if head == nil {
		head = b.newBlock("select.head")
	}
	b.current = nil
	done := b.newBlock("select.done")
	b.setLabel(label, done, nil)
	var clauses []*ast.CommClause
	for _, st := range s.Body.List {
		if cc, ok := st.(*ast.CommClause); ok {
			clauses = append(clauses, cc)
		}
	}
	// A select blocks until one comm proceeds, so head never reaches
	// done directly — even without a default clause.
	for _, cc := range clauses {
		name := "select.comm"
		if cc.Comm == nil {
			name = "select.default"
		}
		blk := b.newBlock(name)
		head.Succs = append(head.Succs, blk)
		b.targets = &targets{outer: b.targets, breakTarget: done}
		b.startBlock(blk)
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.jump(done)
		b.targets = b.targets.outer
	}
	b.startBlock(done)
}

// setLabel records break/continue targets for the innermost pending
// label, if the statement being built was labeled.
func (b *builder) setLabel(label string, breakT, contT *Block) {
	if label == "" {
		return
	}
	lb := b.labelFor(label)
	lb.breakTarget = breakT
	lb.contTarget = contT
}

// Reachable returns, per block index, whether the block is reachable
// from the entry.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if len(g.Blocks) > 0 {
		walk(g.Blocks[0])
	}
	return seen
}

// Dominators computes the immediate dominator of every reachable block
// (idom[entry] = -1; unreachable blocks also get -1) by iterating the
// classic dominance dataflow to a fixpoint — SPARTAN function CFGs are
// small, so the simple algorithm is plenty.
func (g *CFG) Dominators() []int {
	n := len(g.Blocks)
	reach := g.Reachable()
	// dom[i] = set of blocks dominating i, as a bitvector.
	words := (n + 63) / 64
	full := make([]uint64, words)
	for i := 0; i < n; i++ {
		if reach[i] {
			full[i/64] |= 1 << (i % 64)
		}
	}
	dom := make([][]uint64, n)
	for i := range dom {
		dom[i] = make([]uint64, words)
		if i == 0 {
			dom[i][0] = 1 // entry dominates itself only
		} else {
			copy(dom[i], full)
		}
	}
	changed := true
	for changed {
		changed = false
		for i := 1; i < n; i++ {
			if !reach[i] {
				continue
			}
			next := make([]uint64, words)
			copy(next, full)
			any := false
			for _, p := range g.Blocks[i].Preds {
				if !reach[p.Index] {
					continue
				}
				any = true
				for w := range next {
					next[w] &= dom[p.Index][w]
				}
			}
			if !any {
				next = make([]uint64, words)
			}
			next[i/64] |= 1 << (i % 64)
			for w := range next {
				if next[w] != dom[i][w] {
					dom[i] = next
					changed = true
					break
				}
			}
		}
	}
	// Extract immediate dominators: the strict dominator that is itself
	// dominated by every other strict dominator.
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	for i := 1; i < n; i++ {
		if !reach[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if j == i || dom[i][j/64]&(1<<(j%64)) == 0 {
				continue
			}
			// j strictly dominates i; is it the closest? It is iff
			// every other strict dominator k of i also dominates j
			// (i.e. sits above j on the dominator chain).
			isIdom := true
			for k := 0; k < n; k++ {
				if k == i || k == j || dom[i][k/64]&(1<<(k%64)) == 0 {
					continue
				}
				if dom[j][k/64]&(1<<(k%64)) == 0 {
					isIdom = false // k is a strict dominator not above j
					break
				}
			}
			if isIdom {
				idom[i] = j
				break
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under idom (as
// returned by Dominators). Every block dominates itself.
func Dominates(idom []int, a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = idom[b]
	}
	return false
}

// LoopBlocks returns, per block index, whether the block lies on a
// cycle — i.e. executes more than once per function call. Computed via
// Tarjan's strongly connected components over the reachable subgraph.
func (g *CFG) LoopBlocks() []bool {
	n := len(g.Blocks)
	inLoop := make([]bool, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, s := range g.Blocks[v].Succs {
			w := s.Index
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				for _, w := range scc {
					inLoop[w] = true
				}
			} else {
				// Single-node SCC is a loop only on a self-edge.
				for _, s := range g.Blocks[scc[0]].Succs {
					if s.Index == scc[0] {
						inLoop[scc[0]] = true
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if index[i] == -1 {
			strongconnect(i)
		}
	}
	return inLoop
}

// BlockOf returns the block whose Nodes contain a node with the given
// position, or nil. Analyzers use it to locate the block of a statement
// they found by AST walking. When several blocks' nodes span the
// position (a range.header carries the whole RangeStmt, which encloses
// every statement of the range body), the innermost — smallest-span —
// node wins, so body statements resolve to their body block rather
// than the enclosing header.
func (g *CFG) BlockOf(pos token.Pos) *Block {
	var best *Block
	var bestSpan token.Pos
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos <= n.End() {
				span := n.End() - n.Pos()
				if best == nil || span < bestSpan {
					best, bestSpan = b, span
				}
			}
		}
	}
	return best
}

// Format renders the graph for golden tests and the spartanvet
// -debug.cfg flag: one paragraph per block with its kind, nodes (as
// source), and successor indices.
func (g *CFG) Format(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, ".%d %s\n", b.Index, b.Kind)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, "\t%s\n", formatNode(fset, n))
		}
		if len(b.Succs) > 0 {
			ids := make([]string, len(b.Succs))
			for i, s := range b.Succs {
				ids[i] = fmt.Sprintf("%d", s.Index)
			}
			fmt.Fprintf(&sb, "\t→ %s\n", strings.Join(ids, " "))
		}
	}
	return sb.String()
}

func formatNode(fset *token.FileSet, n ast.Node) string {
	if r, ok := n.(*ast.RangeStmt); ok {
		// Render only the header; the body is decomposed into blocks.
		head := "range " + formatNode(fset, r.X)
		if r.Key != nil {
			assign := "="
			if r.Tok == token.DEFINE {
				assign = ":="
			}
			kv := formatNode(fset, r.Key)
			if r.Value != nil {
				kv += ", " + formatNode(fset, r.Value)
			}
			head = kv + " " + assign + " " + head
		}
		return "for " + head
	}
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	// Keep dumps one-line even for multi-line nodes (e.g. defer of a
	// multi-line closure).
	out := sb.String()
	if i := strings.IndexByte(out, '\n'); i >= 0 {
		out = out[:i] + " …"
	}
	return out
}
