package unitchecker_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis/sarif"
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

// TestVersionProtocol checks the -V=full handshake cmd/go performs for
// build caching: "name version devel ... buildID=<content-id>".
func TestVersionProtocol(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	line := strings.TrimSpace(string(out))
	if !regexp.MustCompile(`^spartanvet version devel .*buildID=[0-9a-f]+$`).MatchString(line) {
		t.Fatalf("-V=full output %q does not match the cmd/go toolID grammar", line)
	}
}

// TestFlagsProtocol checks `tool -flags` prints the JSON flag catalogue
// cmd/go parses before constructing the vet command line.
func TestFlagsProtocol(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not the JSON shape cmd/go expects: %v\n%s", err, out)
	}
	want := map[string]bool{
		"floatcmp": true, "spanfinish": true, "lockbalance": true, "errcheckio": true, "metricname": true,
		"nilflow": true, "deferloop": true, "hotalloc": true, "boundedspawn": true, "closeleak": true,
	}
	for _, f := range flags {
		delete(want, f.Name)
		if !f.Bool {
			t.Errorf("flag %s must be boolean", f.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing analyzer flags: %v", want)
	}
}

// TestGoVetFindsSeededViolations runs the real `go vet -vettool` pipeline
// over a scratch module seeded with one violation per analyzer and
// checks each one surfaces — the end-to-end proof that the suite fails
// on seed-style code.
func TestGoVetFindsSeededViolations(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write("cart/cart.go", `package cart

func Same(a, b float64) bool { return a == b }
`)
	write("obs/obs.go", `package obs

import "sync"

type R struct{ mu sync.Mutex }

func (r *R) Touch() { r.mu.Lock() }
`)
	write("codec/codec.go", `package codec

import "bufio"

func Emit(w *bufio.Writer) { w.WriteByte(0) }
`)
	write("pipeline/pipeline.go", `package pipeline

type Span struct{}

func (s *Span) Finish() {}

type Trace struct{}

func (t *Trace) Start(string) *Span { return &Span{} }

func Leak(tr *Trace) { tr.Start("compress") }
`)
	write("metrics/metrics.go", `package metrics

type Registry struct{}

func (r *Registry) Counter(name, help string, labels ...string) int { return 0 }

func Register(r *Registry) { _ = r.Counter("bad-name", "help") }
`)

	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GO111MODULE=on")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("go vet succeeded on seeded violations; stderr:\n%s", stderr.String())
	}
	got := stderr.String()
	for _, wantFrag := range []string{
		"[floatcmp]", "[lockbalance]", "[errcheckio]", "[spanfinish]", "[metricname]",
	} {
		if !strings.Contains(got, wantFrag) {
			t.Errorf("go vet output missing a %s finding:\n%s", wantFrag, got)
		}
	}
}

// TestGoVetCleanModule checks the other half of the contract: a module
// with no violations passes `go vet -vettool` with exit status 0.
func TestGoVetCleanModule(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module clean\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "cart"), 0o777); err != nil {
		t.Fatal(err)
	}
	src := `package cart

import "math"

func Same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
`
	if err := os.WriteFile(filepath.Join(dir, "cart", "cart.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet failed on a clean module: %v\n%s", err, stderr.String())
	}
}

// seedModule writes a scratch module with one floatcmp violation, one
// suppressed errcheckio violation, and one stale ignore directive, and
// returns its directory.
func seedModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seeded\n\ngo 1.22\n")
	write("cart/cart.go", `package cart

func Same(a, b float64) bool { return a == b }
`)
	write("codec/codec.go", `package codec

import "bufio"

//spartanvet:ignore errcheckio best-effort trailer write
func Emit(w *bufio.Writer) { w.WriteByte(0) }

//spartanvet:ignore floatcmp nothing here compares floats
func Noop() {}
`)
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

// TestStandaloneSarif checks the aggregated `spartanvet -sarif ./...`
// mode: the output must be a valid SARIF 2.1.0 log containing the
// seeded finding, the suppressed finding (as a suppression), and the
// stale-directive finding.
func TestStandaloneSarif(t *testing.T) {
	dir := seedModule(t)
	stdout, stderr, code := runTool(t, dir, "-sarif", "./...")
	if code != 0 {
		t.Fatalf("-sarif exited %d (data formats must not gate)\nstderr: %s", code, stderr)
	}
	if err := sarif.Validate([]byte(stdout)); err != nil {
		t.Fatalf("output is not valid SARIF 2.1.0: %v\n%s", err, stdout)
	}
	for _, want := range []string{
		`"ruleId": "floatcmp"`,
		`"ruleId": "errcheckio"`,
		`"ruleId": "staleignore"`,
		`"kind": "inSource"`,
		`"justification": "best-effort trailer write"`,
		`"uri": "cart/cart.go"`,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("SARIF output missing %s\n%s", want, stdout)
		}
	}
}

// TestStandaloneJSON checks the -json format: a flat array with the
// suppressed flag carried through.
func TestStandaloneJSON(t *testing.T) {
	dir := seedModule(t)
	stdout, stderr, code := runTool(t, dir, "-json", "./...")
	if code != 0 {
		t.Fatalf("-json exited %d\nstderr: %s", code, stderr)
	}
	var diags []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Analyzer   string `json:"analyzer"`
		Suppressed bool   `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, stdout)
	}
	byAnalyzer := map[string]bool{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = true
		if d.Analyzer == "errcheckio" && !d.Suppressed {
			t.Errorf("suppressed errcheckio finding lost its flag: %+v", d)
		}
	}
	for _, want := range []string{"floatcmp", "errcheckio", "staleignore"} {
		if !byAnalyzer[want] {
			t.Errorf("-json output missing %s diagnostics\n%s", want, stdout)
		}
	}
}

// TestStandaloneText checks the default standalone mode still gates:
// findings print to stderr and the exit code is non-zero, with the
// suppressed finding excluded.
func TestStandaloneText(t *testing.T) {
	dir := seedModule(t)
	_, stderr, code := runTool(t, dir, "./...")
	if code != 2 {
		t.Fatalf("text mode exited %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "[floatcmp]") {
		t.Errorf("stderr missing the floatcmp finding:\n%s", stderr)
	}
	if !strings.Contains(stderr, "[staleignore]") {
		t.Errorf("stderr missing the stale-directive finding:\n%s", stderr)
	}
	if strings.Contains(stderr, "[errcheckio]") {
		t.Errorf("suppressed errcheckio finding leaked into text output:\n%s", stderr)
	}
}

// TestStaleDirectiveFailsGoVet proves the satellite contract: an ignore
// directive that suppresses nothing fails the ordinary `go vet
// -vettool` pipeline that `make lint` runs.
func TestStaleDirectiveFailsGoVet(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module stale\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "cart"), 0o777); err != nil {
		t.Fatal(err)
	}
	src := `package cart

//spartanvet:ignore floatcmp this function no longer compares floats
func Same(a, b int) bool { return a == b }
`
	if err := os.WriteFile(filepath.Join(dir, "cart", "cart.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GO111MODULE=on")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("go vet passed a module with a stale ignore directive")
	}
	if !strings.Contains(stderr.String(), "[staleignore]") {
		t.Fatalf("go vet output missing the staleignore finding:\n%s", stderr.String())
	}
}

// TestDebugCFGDump checks -debug.cfg=<func> prints the function's
// control-flow graph to stderr while checking.
func TestDebugCFGDump(t *testing.T) {
	dir := seedModule(t)
	_, stderr, _ := runTool(t, dir, "-debug.cfg=Same", "-json", "./...")
	if !strings.Contains(stderr, "# CFG Same") {
		t.Fatalf("-debug.cfg=Same produced no CFG dump:\n%s", stderr)
	}
	if !strings.Contains(stderr, "entry") {
		t.Fatalf("CFG dump has no entry block:\n%s", stderr)
	}
}
