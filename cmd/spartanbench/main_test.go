package main

import "testing"

// Small-row smoke tests over every report: they exercise the full
// experiment drivers and the printers without asserting numbers (the
// experiments package tests cover the shapes).
func TestReportsSmoke(t *testing.T) {
	const rows = 800
	for name, run := range map[string]func(int, int64) error{
		"fig5":     fig5,
		"fig6a":    fig6a,
		"fig6b":    fig6b,
		"fig6c":    fig6c,
		"table1":   table1,
		"lossless": lossless,
		"ablate":   ablate,
	} {
		if err := run(rows, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
