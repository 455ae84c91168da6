package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestSuppressionCoversSameAndNextLine(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //spartanvet:ignore demo trailing-comment style
	//spartanvet:ignore demo comment-above style
	_ = 2
	_ = 3
}
`)
	idx := IndexSuppressions(fset, files)
	tf := fset.File(files[0].Pos())
	for _, tc := range []struct {
		line int
		want bool
	}{
		{4, true},  // trailing comment
		{5, true},  // the directive's own line
		{6, true},  // comment-above
		{7, false}, // out of reach
	} {
		pos := tf.LineStart(tc.line)
		if got := idx.covering(fset, pos, "demo") != nil; got != tc.want {
			t.Errorf("line %d: covered=%v, want %v", tc.line, got, tc.want)
		}
	}
	// A different analyzer name is not covered.
	if idx.covering(fset, tf.LineStart(4), "other") != nil {
		t.Error("directive for demo must not cover analyzer other")
	}
}

func TestSuppressionRequiresReason(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //spartanvet:ignore demo
}
`)
	idx := IndexSuppressions(fset, files)
	tf := fset.File(files[0].Pos())
	if idx.covering(fset, tf.LineStart(4), "demo") != nil {
		t.Error("a reasonless ignore directive must be inert")
	}
}

func TestPackageBase(t *testing.T) {
	for _, tc := range []struct {
		path string
		name string
		want bool
	}{
		{"repro/internal/cart", "cart", true},
		{"cart", "cart", true},
		{"repro/internal/fascicle", "cart", false},
		{"repro/internal/cartoon", "cart", false},
	} {
		p := &Pass{Pkg: types.NewPackage(tc.path, "x")}
		if got := p.PackageBase(tc.name); got != tc.want {
			t.Errorf("PackageBase(%q) on %q = %v, want %v", tc.name, tc.path, got, tc.want)
		}
	}
}

// TestStaleDirectives checks both placements: a trailing (end-of-line)
// directive whose analyzer fires on its line is used; a comment-above
// directive whose analyzer never fires on the next line is stale.
func TestStaleDirectives(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //spartanvet:ignore demo trailing: the analyzer fires here
	//spartanvet:ignore demo preceding-line: nothing fires below
	_ = 2
	//spartanvet:ignore other a directive for an analyzer that did not run
	_ = 3
}
`)
	a := &Analyzer{Name: "demo"}
	sup := IndexSuppressions(fset, files)
	pass := NewPassShared(a, fset, files, types.NewPackage("p", "p"), &types.Info{}, func(Diagnostic) {
		t.Error("the only report is suppressed; nothing should reach the sink")
	}, sup)
	tf := fset.File(files[0].Pos())
	pass.Reportf(tf.LineStart(4), "suppressed by the trailing directive")

	stale := sup.Stale(map[string]bool{"demo": true}, false)
	if len(stale) != 1 {
		t.Fatalf("stale = %+v, want exactly the preceding-line directive", stale)
	}
	if got := fset.Position(stale[0].Pos).Line; got != 5 {
		t.Errorf("stale directive reported at line %d, want 5", got)
	}
	if stale[0].Analyzer != StaleIgnoreName {
		t.Errorf("stale diagnostic analyzer = %q, want %q", stale[0].Analyzer, StaleIgnoreName)
	}
}

// TestStaleEndOfLineDirective is the mirror case: a trailing directive
// with no matching finding on its own line (or the next) is stale.
func TestStaleEndOfLineDirective(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //spartanvet:ignore demo end-of-line: nothing fires here
}
`)
	sup := IndexSuppressions(fset, files)
	// No analyzer reports anything.
	stale := sup.Stale(map[string]bool{"demo": true}, false)
	if len(stale) != 1 {
		t.Fatalf("stale = %+v, want the end-of-line directive", stale)
	}
	if got := fset.Position(stale[0].Pos).Line; got != 4 {
		t.Errorf("stale directive reported at line %d, want 4", got)
	}
}

// TestStaleAllDirective: `ignore all` is judged only under a full-suite
// run (judgeAll), since any analyzer could have been its target.
func TestStaleAllDirective(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //spartanvet:ignore all blanket suppression that suppresses nothing
}
`)
	sup := IndexSuppressions(fset, files)
	if got := sup.Stale(map[string]bool{"demo": true}, false); len(got) != 0 {
		t.Errorf("partial run judged an all-directive: %+v", got)
	}
	if got := sup.Stale(map[string]bool{"demo": true}, true); len(got) != 1 {
		t.Errorf("full run must report the unused all-directive, got %+v", got)
	}
}

func TestReportfSuppressed(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //spartanvet:ignore demo reason here
	_ = 2
	_ = 3
}
`)
	a := &Analyzer{Name: "demo"}
	var got []Diagnostic
	pass := NewPass(a, fset, files, types.NewPackage("p", "p"), &types.Info{}, func(d Diagnostic) {
		got = append(got, d)
	})
	tf := fset.File(files[0].Pos())
	pass.Reportf(tf.LineStart(4), "suppressed")
	pass.Reportf(tf.LineStart(6), "reported")
	if len(got) != 1 || got[0].Message != "reported" {
		t.Fatalf("diagnostics = %+v, want exactly the unsuppressed one", got)
	}
	if got[0].Analyzer != "demo" {
		t.Fatalf("diagnostic analyzer = %q, want demo", got[0].Analyzer)
	}
}
