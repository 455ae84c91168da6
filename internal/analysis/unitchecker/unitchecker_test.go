package unitchecker_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles cmd/spartanvet into a temp dir and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "spartanvet")
	cmd := exec.Command("go", "build", "-o", tool, "repro/cmd/spartanvet")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building spartanvet: %v\n%s", err, out)
	}
	return tool
}

func repoRoot(t *testing.T) string {
	t.Helper()
	// This test file lives at internal/analysis/unitchecker.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(wd)))
}

// writeModule writes files (relative path → source) into a fresh
// scratch directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runTool executes the built tool in dir and returns stdout, stderr,
// and the exit code.
func runTool(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(buildTool(t), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GO111MODULE=on")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running tool: %v", err)
	}
	return stdout.String(), stderr.String(), code
}

// TestGoVetFindsSeededViolations runs the tool the way `make lint` does
// over a scratch module seeded with one violation per analyzer and
// checks each one surfaces — the end-to-end proof that the suite fails
// on seed-style code.
func TestGoVetFindsSeededViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"cart/cart.go": `package cart

func Same(a, b float64) bool { return a == b }
`,
		"codec/codec.go": `package codec

import "bufio"

func Emit(w *bufio.Writer) { w.WriteByte(0) }
`,
		"pipeline/pipeline.go": `package pipeline

type Span struct{}

func (s *Span) Finish() {}

type Trace struct{}

func (t *Trace) Start(string) *Span { return &Span{} }

func Leak(tr *Trace) { tr.Start("compress") }
`,
	})
	_, stderr, code := runTool(t, dir, "./...")
	if code != 2 {
		t.Fatalf("exit %d on seeded violations, want 2; stderr:\n%s", code, stderr)
	}
	for _, wantFrag := range []string{
		"[floatcmp]", "[errcheckio]", "[spanfinish]",
	} {
		if !strings.Contains(stderr, wantFrag) {
			t.Errorf("output missing a %s finding:\n%s", wantFrag, stderr)
		}
	}
}

// TestGoVetCleanModule checks the other half of the contract: a module
// with no violations, tests included, passes with exit status 0.
func TestGoVetCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module clean\n\ngo 1.22\n",
		"cart/cart.go": `package cart

import "math"

func Same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
`,
		"cart/cart_test.go": `package cart

import "testing"

func TestSame(t *testing.T) {
	if !Same(1, 1) {
		t.Fatal("1 != 1")
	}
}
`,
	})
	if _, stderr, code := runTool(t, dir, "./..."); code != 0 {
		t.Fatalf("exit %d on a clean module, want 0\n%s", code, stderr)
	}
}

// TestTestFilesCovered checks that test files are linted: a finding in
// an in-package _test.go file and a finding in an external p_test
// package must both be reported.
func TestTestFilesCovered(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tested\n\ngo 1.22\n",
		"cart/cart.go": `package cart

import "math"

func Same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
`,
		"cart/cart_test.go": `package cart

import "testing"

func TestSame(t *testing.T) {
	if a, b := 0.1+0.2, 0.3; Same(a, b) != (a == b) {
		t.Fatal("mismatch")
	}
}
`,
		"pipeline/pipeline.go": `package pipeline

type Span struct{}

func (s *Span) Finish() {}

type Trace struct{}

func (t *Trace) Start(string) *Span { return &Span{} }
`,
		"pipeline/pipeline_test.go": `package pipeline_test

import (
	"testing"

	"tested/pipeline"
)

func TestLeak(t *testing.T) {
	tr := &pipeline.Trace{}
	tr.Start("compress")
}
`,
	})
	_, stderr, code := runTool(t, dir, "./...")
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
	}
	for _, want := range []string{
		"cart/cart_test.go:6:", "[floatcmp]",
		"pipeline/pipeline_test.go:11:", "[spanfinish]",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("output missing %s:\n%s", want, stderr)
		}
	}
}

// TestStandaloneText checks the one output mode gates: findings print
// to stderr and the exit code is non-zero. Flags are refused: the tool
// takes package patterns only.
func TestStandaloneText(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module seeded\n\ngo 1.22\n",
		"cart/cart.go": `package cart

func Same(a, b float64) bool { return a == b }
`,
	})
	_, stderr, code := runTool(t, dir, "./...")
	if code != 2 {
		t.Fatalf("text mode exited %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "cart/cart.go:3:") || !strings.Contains(stderr, "[floatcmp]") {
		t.Errorf("stderr missing the floatcmp finding:\n%s", stderr)
	}

	if _, stderr, code := runTool(t, dir, "-sarif", "./..."); code != 2 || !strings.Contains(stderr, "unrecognized flag -sarif") {
		t.Errorf("-sarif: exit %d, want 2 with an unrecognized-flag error\nstderr: %s", code, stderr)
	}
}
