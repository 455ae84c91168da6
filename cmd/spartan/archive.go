package main

import (
	"os"

	"repro"
)

// readCompressedFile decompresses a compressed file into one table.
func readCompressedFile(path string) (*spartan.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spartan.Decompress(f)
}

// openArchiveFile opens path as a seekable archive; any other file fails
// with spartan.ErrNotArchive. The archive owns the underlying file: the
// caller's Close on the archive closes it.
func openArchiveFile(path string) (*spartan.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	a, err := spartan.OpenArchive(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return a, nil
}
