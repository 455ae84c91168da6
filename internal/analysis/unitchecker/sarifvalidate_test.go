package unitchecker

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/sarif"
)

// writeSarifLog marshals a minimal log holding the given results.
func writeSarifLog(t *testing.T, path string, results []sarif.Result) {
	t.Helper()
	log := sarif.Log{
		Schema:  sarif.SchemaURI,
		Version: sarif.Version,
		Runs: []sarif.Run{{
			Tool:    sarif.Tool{Driver: sarif.Driver{Name: "spartanvet"}},
			Results: results,
		}},
	}
	data, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

func result(rule, uri, msg string, line int) sarif.Result {
	return sarif.Result{
		RuleID:  rule,
		Message: sarif.Message{Text: msg},
		Locations: []sarif.Location{{PhysicalLocation: sarif.PhysicalLocation{
			ArtifactLocation: sarif.ArtifactLocation{URI: uri},
			Region:           &sarif.Region{StartLine: line, StartColumn: 1},
		}}},
	}
}

// TestSarifValidate drives the -sarifvalidate mode through the CLI
// entry point: a well-formed emitted log passes, a log with fields
// outside the model fails, and usage errors exit 1.
func TestSarifValidate(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.sarif")
	writeSarifLog(t, good, []sarif.Result{
		result("errcheckio", "codec/encode.go", "error from Write is discarded", 12),
	})

	t.Run("valid log passes", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run("spartanvet", []string{"-sarifvalidate", good}, nil, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "valid SARIF") {
			t.Errorf("stdout missing confirmation: %s", stdout.String())
		}
	})

	t.Run("unknown field fails", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.sarif")
		data, err := os.ReadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		drifted := bytes.Replace(data, []byte(`"version"`), []byte(`"futureField": 1, "version"`), 1)
		if err := os.WriteFile(bad, drifted, 0o666); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run("spartanvet", []string{"-sarifvalidate", bad}, nil, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1\nstdout: %s", code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "bad.sarif") {
			t.Errorf("stderr should name the failing file: %s", stderr.String())
		}
	})

	t.Run("usage and IO errors", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run("spartanvet", []string{"-sarifvalidate"}, nil, &stdout, &stderr); code != 1 {
			t.Errorf("no arguments: exit %d, want 1", code)
		}
		if code := run("spartanvet", []string{"-sarifvalidate", filepath.Join(dir, "missing.sarif")}, nil, &stdout, &stderr); code != 1 {
			t.Errorf("missing file: exit %d, want 1", code)
		}
	})
}
