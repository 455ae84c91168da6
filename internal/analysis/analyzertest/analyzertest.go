// Package analyzertest runs an analyzer over golden packages under a
// testdata directory and checks its diagnostics against expectations
// written in the sources, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	if a == b { // want "compares floats"
//
// Each `// want` comment carries one or more quoted regexps that must
// match diagnostics reported on that line; diagnostics with no matching
// expectation, and expectations with no matching diagnostic, fail the
// test. Fixture packages live in testdata/src/<pkg> and may import only
// the standard library (type-checking uses the source importer, so no
// compiled artifacts are needed).
package analyzertest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run checks analyzer a against every named fixture package under
// dir/src (dir is typically "testdata").
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			runPackage(t, filepath.Join(dir, "src", pkg), pkg, a)
		})
	}
}

func runPackage(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	// Type-check under the fixture's package-clause name rather than the
	// directory name, so one analyzer's fixtures can live in their own
	// directory while still matching a scoped analyzer's PackageBase
	// (e.g. testdata/src/deferloop declares `package fascicle`).
	if name := files[0].Name.Name; name != "" {
		pkgPath = name
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
	pkg, err := cfg.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}

	var diags []analysis.Diagnostic
	pass := analysis.NewPass(a, fset, files, pkg, info, func(d analysis.Diagnostic) {
		diags = append(diags, d)
	})
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	keys := make([]lineKey, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// wantRE extracts the quoted regexps of one `// want` comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*want {
	t.Helper()
	out := map[lineKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				matches := wantRE.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range matches {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", pos, err)
					}
					key := lineKey{pos.Filename, pos.Line}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}
