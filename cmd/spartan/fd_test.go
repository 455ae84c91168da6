package main

import (
	"os"
	"path/filepath"
	"testing"
)

// openFDs counts this process's open file descriptors, skipping the
// test where /proc/self/fd cannot be read (anything but Linux).
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(fds)
}

// TestSubcommandsCloseFiles: every subcommand, on its success and its
// error paths, leaves the process with the file descriptors it started
// with. The steps run in order: later ones read what earlier ones wrote.
func TestSubcommandsCloseFiles(t *testing.T) {
	csvPath, binPath := writeTempTable(t)
	dir := filepath.Dir(binPath)
	stream := filepath.Join(dir, "fd.sptn")
	arch := filepath.Join(dir, "fd.sparc")
	forced := filepath.Join(dir, "forced.sptn")
	garbage := filepath.Join(dir, "garbage.sptn")
	if err := os.WriteFile(garbage, []byte("not a compressed table"), 0o644); err != nil {
		t.Fatal(err)
	}
	missingDir := filepath.Join(dir, "missing", "out.bin")

	steps := []struct {
		name    string
		args    []string
		run     func([]string) error
		wantErr bool
	}{
		{"compress", []string{"-in", binPath, "-out", stream, "-tolerance", "0.01", "-q"}, cmdCompress, false},
		{"compress segmented", []string{"-in", csvPath, "-out", arch, "-segment-rows", "300", "-q"}, cmdCompress, false},
		{"compress forced categorical", []string{"-in", csvPath, "-out", forced, "-categorical", "src_exchange", "-q"}, cmdCompress, false},
		{"compress unreadable input", []string{"-in", garbage, "-out", stream}, cmdCompress, true},
		{"compress unknown forced column", []string{"-in", csvPath, "-out", stream, "-categorical", "zzz"}, cmdCompress, true},
		{"compress forced binary", []string{"-in", binPath, "-out", stream, "-categorical", "plan"}, cmdCompress, true},
		{"decompress", []string{"-in", arch, "-out", filepath.Join(dir, "back.csv")}, cmdDecompress, false},
		{"decompress garbage", []string{"-in", garbage, "-out", filepath.Join(dir, "x.bin")}, cmdDecompress, true},
		{"decompress unwritable output", []string{"-in", stream, "-out", missingDir}, cmdDecompress, true},
		{"verify", []string{"-original", csvPath, "-compressed", forced, "-categorical", "src_exchange"}, cmdVerify, false},
		{"verify garbage", []string{"-original", binPath, "-compressed", garbage}, cmdVerify, true},
		{"verify beyond tolerance", []string{"-original", binPath, "-compressed", stream}, cmdVerify, true},
		{"inspect", []string{"-in", arch}, cmdInspect, false},
		{"inspect garbage", []string{"-in", garbage}, cmdInspect, true},
		{"query stream", []string{"-in", stream, "-agg", "count"}, cmdQuery, false},
		{"query archive", []string{"-in", arch, "-agg", "count", "-where", "duration_sec > 100"}, cmdQuery, false},
		{"query stream bad where", []string{"-in", stream, "-where", "nope >"}, cmdQuery, true},
		{"query archive bad where", []string{"-in", arch, "-where", "nope >"}, cmdQuery, true},
		{"query garbage", []string{"-in", garbage}, cmdQuery, true},
		{"deps", []string{"-in", csvPath}, cmdDeps, false},
		{"deps garbage", []string{"-in", garbage}, cmdDeps, true},
	}
	for _, s := range steps {
		before := openFDs(t)
		err := s.run(s.args)
		if (err != nil) != s.wantErr {
			t.Fatalf("%s: error %v, want error %v", s.name, err, s.wantErr)
		}
		if after := openFDs(t); after != before {
			t.Errorf("%s: %d open files before, %d after", s.name, before, after)
		}
	}
}
