package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

// readCompressedFile decompresses a compressed file into one table.
func readCompressedFile(path string) (*spartan.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spartan.ReadArchive(f)
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

// writeSegmented compresses t into a segmented archive on w, reporting
// the shared plan once, then per-segment and total statistics, on report.
func writeSegmented(w, report io.Writer, t *spartan.Table, opts spartan.Options, seg spartan.SegmentOptions) error {
	stats, err := spartan.CompressArchive(w, t, opts, seg)
	if err != nil {
		return err
	}
	if len(stats.PerSegment) > 0 {
		// The first segment carries the learn step's statistics.
		fmt.Fprintf(report, "predicted: %s (shared by every segment)\n", strings.Join(stats.PerSegment[0].Predicted, ", "))
	}
	for i, s := range stats.PerSegment {
		fmt.Fprintf(report, "segment %d: ratio %.4f (%d outliers)\n", i, s.Ratio, s.Outliers)
	}
	fmt.Fprintf(report, "archive: %d segments, %d rows, %d B (ratio %.4f)\n",
		stats.Segments, stats.Rows, stats.CompressedBytes, stats.Ratio)
	return nil
}
