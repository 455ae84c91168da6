package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses src (a file containing one function) and returns the
// CFG of the first function declaration plus the fileset.
func buildFunc(t *testing.T, src string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", "package p\n\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return New(fd.Body), fset
		}
	}
	t.Fatal("no function in fixture")
	return nil, nil
}

// checkDump compares the formatted graph against a golden dump. Golden
// lines use tabs exactly as format emits them.
func checkDump(t *testing.T, g *CFG, fset *token.FileSet, want string) {
	t.Helper()
	got := format(g, fset)
	if got != want {
		t.Errorf("CFG dump mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// format renders the graph for the golden tests: one paragraph per
// block with its kind, nodes (as source), and successor indices.
func format(g *CFG, fset *token.FileSet) string {
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

func TestIfElse(t *testing.T) {
	g, fset := buildFunc(t, `
func f(a int) int {
	if a > 0 {
		a++
	} else {
		a--
	}
	return a
}`)
	checkDump(t, g, fset, `.0 entry
	a > 0
	→ 2 4
.1 exit
.2 if.then
	a++
	→ 3
.3 if.done
	return a
	→ 1
.4 if.else
	a--
	→ 3
`)
}

func TestLabeledLoops(t *testing.T) {
	g, fset := buildFunc(t, `
func f(rows [][]int) int {
	total := 0
outer:
	for i := 0; i < len(rows); i++ {
		for _, v := range rows[i] {
			if v < 0 {
				continue outer
			}
			if v == 99 {
				break outer
			}
			total += v
		}
	}
	return total
}`)
	checkDump(t, g, fset, `.0 entry
	total := 0
	→ 2
.1 exit
.2 label.outer
	i := 0
	→ 3
.3 for.header
	i < len(rows)
	→ 4 5
.4 for.body
	→ 7
.5 for.done
	return total
	→ 1
.6 for.post
	i++
	→ 3
.7 range.header
	for _, v := range rows[i]
	→ 8 9
.8 range.body
	v < 0
	→ 10 11
.9 range.done
	→ 6
.10 if.then
	continue outer
	→ 6
.11 if.done
	v == 99
	→ 12 13
.12 if.then
	break outer
	→ 5
.13 if.done
	total += v
	→ 7
`)
	// The two loop headers and bodies are cyclic; entry/exit/done are not.
	inLoop := g.LoopBlocks()
	for i, want := range map[int]bool{0: false, 1: false, 3: true, 7: true, 8: true, 5: false} {
		if inLoop[i] != want {
			t.Errorf("LoopBlocks[%d] = %v, want %v", i, inLoop[i], want)
		}
	}
}

func TestSelectWithDefault(t *testing.T) {
	g, fset := buildFunc(t, `
func f(c chan int) int {
	select {
	case v := <-c:
		return v
	default:
		return -1
	}
}`)
	checkDump(t, g, fset, `.0 entry
	→ 3 4
.1 exit
.2 select.done
	→ 1
.3 select.comm
	v := <-c
	return v
	→ 1
.4 select.default
	return -1
	→ 1
`)
}

// TestSelectNoDefault: without a default clause the head cannot fall
// through to done — the select blocks until a comm proceeds.
func TestSelectNoDefault(t *testing.T) {
	g, _ := buildFunc(t, `
func f(c, d chan int) {
	select {
	case <-c:
	case <-d:
	}
}`)
	entry := g.Blocks[0]
	for _, s := range entry.Succs {
		if s.Kind == "select.done" {
			t.Errorf("select head must not reach done directly; succs include %s", s.Kind)
		}
	}
	if len(entry.Succs) != 2 {
		t.Errorf("select head has %d succs, want 2 comm clauses", len(entry.Succs))
	}
}

func TestPanicOnlyBranch(t *testing.T) {
	g, fset := buildFunc(t, `
func f(ok bool) int {
	if !ok {
		panic("invariant")
	}
	return 1
}`)
	checkDump(t, g, fset, `.0 entry
	!ok
	→ 2 3
.1 exit
.2 if.then
	panic("invariant")
.3 if.done
	return 1
	→ 1
`)
	// The panic block dead-ends: no successors, so the exit has exactly
	// one predecessor (the return).
	if got := len(g.Blocks[1].Preds); got != 1 {
		t.Errorf("exit preds = %d, want 1 (panic path must not reach exit)", got)
	}
}

func TestRangeOverMap(t *testing.T) {
	g, fset := buildFunc(t, `
func f(m map[string]int) int {
	sum := 0
	for k, v := range m {
		_ = k
		sum += v
	}
	return sum
}`)
	checkDump(t, g, fset, `.0 entry
	sum := 0
	→ 2
.1 exit
.2 range.header
	for k, v := range m
	→ 3 4
.3 range.body
	_ = k
	sum += v
	→ 2
.4 range.done
	return sum
	→ 1
`)
}

func TestSwitchFallthrough(t *testing.T) {
	g, _ := buildFunc(t, `
func f(n int) string {
	s := ""
	switch n {
	case 0:
		s = "zero"
		fallthrough
	case 1:
		s += "one"
	default:
		s = "many"
	}
	return s
}`)
	// Find the first case block; its fallthrough must edge into the
	// second case block, and the head must not reach done (default exists).
	var case0, case1 *Block
	for _, b := range g.Blocks {
		if b.Kind == "switch.case" {
			if case0 == nil {
				case0 = b
			} else if case1 == nil {
				case1 = b
			}
		}
	}
	if case0 == nil || case1 == nil {
		t.Fatal("missing switch.case blocks")
	}
	found := false
	for _, s := range case0.Succs {
		if s == case1 {
			found = true
		}
	}
	if !found {
		t.Errorf("fallthrough edge case0→case1 missing; succs=%v", kinds(case0.Succs))
	}
	entry := g.Blocks[0]
	for _, s := range entry.Succs {
		if s.Kind == "switch.done" {
			t.Error("switch with default must not edge head→done")
		}
	}
}

func TestTypeSwitch(t *testing.T) {
	g, _ := buildFunc(t, `
func f(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case string:
		return len(x)
	}
	return 0
}`)
	entry := g.Blocks[0]
	// No default: head reaches both cases and done.
	if len(entry.Succs) != 3 {
		t.Errorf("typeswitch head succs = %v, want two cases plus done", kinds(entry.Succs))
	}
}

func TestGotoForward(t *testing.T) {
	g, _ := buildFunc(t, `
func f(n int) int {
	if n == 0 {
		goto out
	}
	n *= 2
out:
	return n
}`)
	// The goto block must edge directly to the label block.
	var labelBlk *Block
	for _, b := range g.Blocks {
		if strings.HasPrefix(b.Kind, "label.") {
			labelBlk = b
		}
	}
	if labelBlk == nil {
		t.Fatal("no label block")
	}
	if len(labelBlk.Preds) != 2 {
		t.Errorf("label block preds = %d, want 2 (goto + fallthrough)", len(labelBlk.Preds))
	}
}

// TestGotoGolden pins the full graph for both goto directions: a
// backward goto forms a loop through its label block (.3→.2), and a
// forward goto jumps over the fallthrough path into a late label.
func TestGotoGolden(t *testing.T) {
	g, fset := buildFunc(t, `
func f(n int) int {
	i := 0
retry:
	if i < n {
		i++
		goto retry
	}
	if n < 0 {
		goto fail
	}
	return i
fail:
	return -1
}`)
	checkDump(t, g, fset, `.0 entry
	i := 0
	→ 2
.1 exit
.2 label.retry
	i < n
	→ 3 4
.3 if.then
	i++
	goto retry
	→ 2
.4 if.done
	n < 0
	→ 5 6
.5 if.then
	goto fail
	→ 7
.6 if.done
	return i
	→ 1
.7 label.fail
	return -1
	→ 1
`)
	// The backward goto makes the label block cyclic; the forward
	// target is not.
	inLoop := g.LoopBlocks()
	if !inLoop[2] || !inLoop[3] {
		t.Error("backward-goto loop (.2/.3) not classified as cyclic")
	}
	if inLoop[7] {
		t.Error("forward-goto target (.7) misclassified as cyclic")
	}
}

// TestLabeledSelectGolden pins the interaction of labeled break and
// continue with a select nested two loops deep: `continue drain` must
// edge to the outer header (no post on a bare for), `break drain` to
// the outer done, and an unlabeled break inside a comm clause to
// select.done — NOT out of the inner for loop.
func TestLabeledSelectGolden(t *testing.T) {
	g, fset := buildFunc(t, `
func f(jobs chan int, quit chan struct{}) int {
	total := 0
drain:
	for {
		for retries := 0; retries < 3; retries++ {
			select {
			case v := <-jobs:
				if v < 0 {
					continue drain
				}
				total += v
			case <-quit:
				break drain
			default:
				break
			}
		}
	}
	return total
}`)
	checkDump(t, g, fset, `.0 entry
	total := 0
	→ 2
.1 exit
.2 label.drain
	→ 3
.3 for.header
	→ 4
.4 for.body
	retries := 0
	→ 6
.5 for.done
	return total
	→ 1
.6 for.header
	retries < 3
	→ 7 8
.7 for.body
	→ 11 14 15
.8 for.done
	→ 3
.9 for.post
	retries++
	→ 6
.10 select.done
	→ 9
.11 select.comm
	v := <-jobs
	v < 0
	→ 12 13
.12 if.then
	continue drain
	→ 3
.13 if.done
	total += v
	→ 10
.14 select.comm
	<-quit
	break drain
	→ 5
.15 select.default
	break
	→ 10
`)
	// break drain leaves every loop: the outer done block is acyclic.
	inLoop := g.LoopBlocks()
	if inLoop[5] {
		t.Error("outer for.done (.5) misclassified as in-loop")
	}
	if !inLoop[11] || !inLoop[15] {
		t.Error("select clauses inside the loops (.11/.15) must be cyclic")
	}
}

func TestDefersCollected(t *testing.T) {
	g, _ := buildFunc(t, `
func f() {
	defer una()
	for i := 0; i < 3; i++ {
		defer dos()
	}
}`)
	if len(g.Defers) != 2 {
		t.Fatalf("Defers = %d, want 2", len(g.Defers))
	}
	inLoop := g.LoopBlocks()
	b0 := g.BlockOf(g.Defers[0].Pos())
	b1 := g.BlockOf(g.Defers[1].Pos())
	if b0 == nil || b1 == nil {
		t.Fatal("BlockOf failed to locate defers")
	}
	if inLoop[b0.Index] {
		t.Error("top-level defer misclassified as in-loop")
	}
	if !inLoop[b1.Index] {
		t.Error("loop-body defer not classified as in-loop")
	}
}

// TestBlockOfInnermost: the range header carries the whole RangeStmt,
// whose span encloses every body statement; BlockOf must resolve a body
// statement to the body block, not the header.
func TestBlockOfInnermost(t *testing.T) {
	g, _ := buildFunc(t, `
func f(xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return sum
}`)
	var header, bodyBlk *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "range.header":
			header = b
		case "range.body":
			bodyBlk = b
		}
	}
	if header == nil || bodyBlk == nil || len(bodyBlk.Nodes) == 0 {
		t.Fatal("fixture CFG missing range.header or a populated range.body")
	}
	if got := g.BlockOf(bodyBlk.Nodes[0].Pos()); got != bodyBlk {
		t.Errorf("BlockOf(range body stmt) = .%d %s, want .%d range.body", got.Index, got.Kind, bodyBlk.Index)
	}
	if got := g.BlockOf(header.Nodes[0].Pos()); got != header {
		t.Errorf("BlockOf(range header) = .%d %s, want .%d range.header", got.Index, got.Kind, header.Index)
	}
}

// TestNoReturnCall covers the recognized terminator spellings.
func TestNoReturnCall(t *testing.T) {
	for src, want := range map[string]bool{
		`panic("x")`:    true,
		`os.Exit(1)`:    true,
		`log.Fatal(e)`:  true,
		`t.Fatal(err)`:  true,
		`t.Fatalf("x")`: true,
		`tb.FailNow()`:  true,
		`t.Skip()`:      true,
		`b.SkipNow()`:   true,
		`r.Skip(4)`:     false, // Skip on a non-testing receiver name
		`fmt.Println()`: false,
		`exit()`:        false,
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package p\nfunc f() { "+src+" }", 0)
		if err != nil {
			t.Fatal(err)
		}
		call := f.Decls[0].(*ast.FuncDecl).Body.List[0].(*ast.ExprStmt).X.(*ast.CallExpr)
		if got := NoReturnCall(call); got != want {
			t.Errorf("NoReturnCall(%s) = %v, want %v", src, got, want)
		}
	}
}

func kinds(blocks []*Block) []string {
	out := make([]string, len(blocks))
	for i, b := range blocks {
		out[i] = b.Kind
	}
	return out
}
