package unitchecker_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/sarif"
)

// writeCrossPackageModule seeds a scratch module whose hostile-input
// bug spans a package boundary: codec reads a varint from the wire and
// passes it, unguarded, to wire.AllocN — whose make sink only a
// function summary travelling through the fact channel can reveal.
func writeCrossPackageModule(t *testing.T) string {
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
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write("wire/wire.go", `package wire

// AllocN allocates a buffer for n items.
func AllocN(n int) []byte { return make([]byte, n) }
`)
	write("codec/codec.go", `package codec

import (
	"bufio"
	"encoding/binary"

	"fixture/wire"
)

// Decode reads a length then allocates for it without any limit check:
// the finding spartanvet must produce through the cross-package facts.
func Decode(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return wire.AllocN(int(n)), nil
}
`)
	return dir
}

// TestStandaloneCrossPackageSARIF runs the tool over the codec package
// alone — wire is a dependency outside the pattern, so its summary
// reaches codec only through the facts-only pass — and checks the SARIF
// log carries the taint path as relatedLocations, each step labelled
// and the last one landing in the dependency's source file.
func TestStandaloneCrossPackageSARIF(t *testing.T) {
	tool := buildTool(t)
	dir := writeCrossPackageModule(t)

	cmd := exec.Command(tool, "-sarif", "./codec")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("standalone -sarif: %v", err)
	}
	if err := sarif.Validate(out); err != nil {
		t.Fatalf("emitted SARIF does not validate: %v\n%s", err, out)
	}
	var log sarif.Log
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	var hit *sarif.Result
	for i, r := range log.Runs[0].Results {
		if r.RuleID == "taintalloc" {
			hit = &log.Runs[0].Results[i]
		}
	}
	if hit == nil {
		t.Fatalf("no taintalloc result in SARIF log:\n%s", out)
	}
	if len(hit.RelatedLocations) < 2 {
		t.Fatalf("taintalloc result should carry the source→sink path, got %d relatedLocations", len(hit.RelatedLocations))
	}
	first := hit.RelatedLocations[0]
	if first.Message == nil || !strings.Contains(first.Message.Text, "untrusted wire read") {
		t.Errorf("path should start at the wire read, got %+v", first)
	}
	last := hit.RelatedLocations[len(hit.RelatedLocations)-1]
	if last.Message == nil || !strings.Contains(last.Message.Text, "allocation site") {
		t.Errorf("path should end at the allocation site, got %+v", last)
	}
	if !strings.HasSuffix(last.PhysicalLocation.ArtifactLocation.URI, "wire/wire.go") {
		t.Errorf("allocation site should be in wire/wire.go, got %q", last.PhysicalLocation.ArtifactLocation.URI)
	}
}
