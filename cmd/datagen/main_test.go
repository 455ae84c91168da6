package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
)

func TestRunWritesAllDatasets(t *testing.T) {
	dir := t.TempDir()
	for _, ds := range []string{"census", "corel", "forest", "cdr"} {
		out := filepath.Join(dir, ds+".bin")
		if err := run(ds, 200, out, 1); err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := spartan.ReadBinary(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if tb.NumRows() != 200 {
			t.Errorf("%s: rows = %d", ds, tb.NumRows())
		}
	}
	// CSV output too.
	csvOut := filepath.Join(dir, "c.csv")
	if err := run("cdr", 50, csvOut, 1); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(csvOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := spartan.ReadCSV(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run("", 10, filepath.Join(dir, "x"), 1); err == nil {
		t.Error("accepted empty dataset")
	}
	if err := run("cdr", 10, "", 1); err == nil {
		t.Error("accepted empty output")
	}
	if err := run("cdr", 0, filepath.Join(dir, "x"), 1); err == nil {
		t.Error("accepted zero rows")
	}
	if err := run("mystery", 10, filepath.Join(dir, "x"), 1); err == nil {
		t.Error("accepted unknown dataset")
	}
}

// TestRunClosesFiles: run leaves the process with the file descriptors
// it started with, whether it writes a table or fails. It skips where
// /proc/self/fd cannot be read (anything but Linux).
func TestRunClosesFiles(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	for out, wantErr := range map[string]bool{
		filepath.Join(dir, "t.bin"):            false,
		filepath.Join(dir, "t.csv"):            false,
		filepath.Join(dir, "missing", "t.bin"): true, // create fails
		"/dev/full":                            true, // writes fail after the open
	} {
		before := openFDs()
		if err := run("cdr", 50, out, 1); (err != nil) != wantErr {
			t.Errorf("run -out %s: error %v, want error %v", out, err, wantErr)
		}
		if after := openFDs(); after != before {
			t.Errorf("run -out %s: %d open files before, %d after", out, before, after)
		}
	}
}
