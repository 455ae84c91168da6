package summary

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func compute(t *testing.T, src string) (*Result, *types.Package, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := cfg.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Compute(fset, []*ast.File{f}, info, nil), pkg, fset
}

func summaryOf(t *testing.T, res *Result, pkg *types.Package, name string) *FuncSummary {
	t.Helper()
	for fn, s := range res.ByFunc {
		if fn.Name() == name {
			return s
		}
	}
	t.Fatalf("no summary for %q", name)
	return nil
}

func flowOf(t *testing.T, res *Result, name string) *Flow {
	t.Helper()
	for fn, f := range res.Flows {
		if fn.Name() == name {
			return f
		}
	}
	t.Fatalf("no flow for %q", name)
	return nil
}

func TestSinkParams(t *testing.T) {
	res, pkg, _ := compute(t, `package p

// n reaches a make size unguarded.
func alloc(n int) []byte { return make([]byte, n) }

// n is bounded before the make: not a sink param.
func allocGuarded(n int) []byte {
	if n > 1<<20 {
		n = 1 << 20
	}
	return make([]byte, n)
}

// n bounds an appending loop: sink param.
func grow(dst []byte, n int) []byte {
	for len(dst) < n {
		dst = append(dst, 0)
	}
	return dst
}

// Transitive: m flows into alloc's sink param.
func outer(m int) []byte { return alloc(m + 1) }
`)
	if s := summaryOf(t, res, pkg, "alloc"); len(s.SinkParams) != 1 ||
		s.SinkParams[0].Param != 0 || s.SinkParams[0].What != "make size" {
		t.Errorf("alloc sinks = %+v, want one make-size sink on param 0", s.SinkParams)
	}
	if s := summaryOf(t, res, pkg, "allocGuarded"); len(s.SinkParams) != 0 {
		t.Errorf("allocGuarded sinks = %+v, want none (reassigned to a constant on the hot edge, bounded on the other)", s.SinkParams)
	}
	s := summaryOf(t, res, pkg, "grow")
	found := false
	for _, sp := range s.SinkParams {
		if sp.Param == 1 && sp.What == "allocating loop bound" {
			found = true
		}
	}
	if !found {
		t.Errorf("grow sinks = %+v, want allocating-loop-bound on param 1", s.SinkParams)
	}
	so := summaryOf(t, res, pkg, "outer")
	if len(so.SinkParams) != 1 || so.SinkParams[0].Param != 0 || so.SinkParams[0].Via != "alloc" {
		t.Errorf("outer sinks = %+v, want transitive make-size sink via alloc", so.SinkParams)
	}
}

func TestGuardKillsAndPolarity(t *testing.T) {
	res, pkg, _ := compute(t, `package p

// Early-return guard: the fallthrough edge is bounded.
func earlyReturn(n int) []byte {
	if n > 4096 {
		return nil
	}
	return make([]byte, n)
}

// Inverted comparison, same meaning.
func inverted(n int) []byte {
	if 4096 < n {
		return nil
	}
	return make([]byte, n)
}

// || guard: false edge bounds n via the second disjunct.
func orGuard(n int) []byte {
	if n == 0 || n > 4096 {
		return nil
	}
	return make([]byte, n)
}

// The guard compares against another parameter — proves nothing.
func taintedBound(n, m int) []byte {
	if n > m {
		return nil
	}
	return make([]byte, n)
}

// The guard is on the wrong variable.
func wrongVar(n, m int) []byte {
	if m > 4096 {
		return nil
	}
	return make([]byte, n)
}
`)
	for name, wantSinks := range map[string]int{
		"earlyReturn":  0,
		"inverted":     0,
		"orGuard":      0,
		"taintedBound": 1, // n stays tainted: m is no bound
		"wrongVar":     1,
	} {
		s := summaryOf(t, res, pkg, name)
		if len(s.SinkParams) != wantSinks {
			t.Errorf("%s: sinks = %+v, want %d", name, s.SinkParams, wantSinks)
		}
	}
}

func TestClampIdioms(t *testing.T) {
	// Builtin min with an untainted argument clears taint by itself; a
	// hand-written helper is only as good as its summary, and maxInt
	// passes its parameters through.
	res, pkg, _ := compute(t, `package p

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// A min-clamped size is not a sink.
func clamped(n int) []byte { return make([]byte, min(n, 4096)) }

// max does not bound: still a sink.
func unclamped(n int) []byte { return make([]byte, maxInt(n, 4096)) }

// The decoders' shape: a limit comparison, then min for the
// capacity hint.
func guardedHint(n int) []byte {
	if n > 1<<30 {
		return nil
	}
	return make([]byte, 0, min(n, 4096))
}
`)
	if s := summaryOf(t, res, pkg, "clamped"); len(s.SinkParams) != 0 {
		t.Errorf("clamped sinks = %+v, want none", s.SinkParams)
	}
	if s := summaryOf(t, res, pkg, "unclamped"); len(s.SinkParams) != 1 {
		t.Errorf("unclamped sinks = %+v, want the max-combined make size", s.SinkParams)
	}
	if s := summaryOf(t, res, pkg, "guardedHint"); len(s.SinkParams) != 0 {
		t.Errorf("guardedHint sinks = %+v, want none", s.SinkParams)
	}
}

func TestSourceFlows(t *testing.T) {
	res, pkg, _ := compute(t, `package p

import (
	"bufio"
	"encoding/binary"
)

// Wire read flows to the first result.
func readCount(br *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(br)
}

// Unguarded wire count into a make: a source-tainted sink.
func decodeBad(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil
}

// Guarded: clean.
func decodeGood(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, err
	}
	return make([]byte, n), nil
}

// The taint survives the in-package wrapper.
func decodeViaWrapper(br *bufio.Reader) ([]byte, error) {
	n, err := readCount(br)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil
}
`)
	if s := summaryOf(t, res, pkg, "readCount"); len(s.ReturnFlows) != 2 || !s.ReturnFlows[0].Source {
		t.Errorf("readCount returns = %+v, want source on result 0", s.ReturnFlows)
	}
	badHits := 0
	for _, hit := range flowOf(t, res, "decodeBad").Sinks {
		if hit.Taint.FromSource() {
			badHits++
			if len(hit.Taint.Steps()) == 0 {
				t.Errorf("decodeBad sink has no taint path steps")
			}
		}
	}
	if badHits != 1 {
		t.Errorf("decodeBad: %d source sinks, want 1", badHits)
	}
	for _, hit := range flowOf(t, res, "decodeGood").Sinks {
		if hit.Taint.FromSource() {
			t.Errorf("decodeGood: guarded wire count still flagged at %v", hit.Pos)
		}
	}
	viaHits := 0
	for _, hit := range flowOf(t, res, "decodeViaWrapper").Sinks {
		if hit.Taint.FromSource() {
			viaHits++
		}
	}
	if viaHits != 1 {
		t.Errorf("decodeViaWrapper: %d source sinks, want 1 (source through wrapper summary)", viaHits)
	}
}

func TestNarrowingAndProducts(t *testing.T) {
	res, _, _ := compute(t, `package p

import (
	"bufio"
	"encoding/binary"
)

func narrow(br *bufio.Reader) (int, error) {
	delta, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	return int(delta), nil // uint64→int wraps negative
}

func narrowGuarded(br *bufio.Reader) (int, error) {
	delta, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if delta > 1<<30 {
		return 0, err
	}
	return int(delta), nil
}

func product(br *bufio.Reader) ([]float64, error) {
	rows, _ := binary.ReadUvarint(br)
	cols, _ := binary.ReadUvarint(br)
	return make([]float64, rows*cols), nil
}
`)
	var srcNarrow int
	for _, h := range flowOf(t, res, "narrow").Narrowings {
		if h.Taint.FromSource() {
			srcNarrow++
		}
	}
	if srcNarrow != 1 {
		t.Errorf("narrow: %d source narrowings, want 1", srcNarrow)
	}
	for _, h := range flowOf(t, res, "narrowGuarded").Narrowings {
		if h.Taint.FromSource() {
			t.Errorf("narrowGuarded: guarded narrowing still flagged")
		}
	}
	if got := len(flowOf(t, res, "product").Products); got != 1 {
		t.Errorf("product: %d product hits, want 1", got)
	}
}

func TestRecursionTerminates(t *testing.T) {
	res, pkg, _ := compute(t, `package p

// Self-recursive and mutually recursive functions must reach a stable
// summary, with the sink param surviving the cycle.
func walk(depth, n int) []byte {
	if depth == 0 {
		return make([]byte, n)
	}
	return walk(depth-1, n)
}

func pingAlloc(n int) []byte { return pong(n) }
func pong(n int) []byte {
	if n < 0 {
		return pingAlloc(-n)
	}
	return make([]byte, n)
}
`)
	s := summaryOf(t, res, pkg, "walk")
	found := false
	for _, sp := range s.SinkParams {
		if sp.Param == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("walk sinks = %+v, want n (param 1) through the recursion", s.SinkParams)
	}
	if s := summaryOf(t, res, pkg, "pingAlloc"); len(s.SinkParams) == 0 {
		t.Errorf("pingAlloc: sink param lost through mutual recursion")
	}
}
