// Fixture for the deferloop analyzer: defers inside per-row loops
// accumulate until the function returns. Declares package fascicle so
// the scoped analyzer applies.
package fascicle

import "os"

// perRowDefer is the motivating bug: one open file per row, none closed
// until the whole table is processed.
func perRowDefer(paths []string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close() // want "defer inside a loop"
	}
	return nil
}

// hoisted is the fixed shape: the loop body is its own function, so the
// defer releases per iteration.
func hoisted(paths []string) error {
	for _, p := range paths {
		if err := func() error {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			defer f.Close()
			return nil
		}(); err != nil {
			return err
		}
	}
	return nil
}

// topLevelDefer is fine: registered once, before any loop.
func topLevelDefer(path string, rows []int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	total := 0
	for _, r := range rows {
		total += r
	}
	return total, nil
}

// deferAfterLoop is fine: the defer follows the loop, outside its body.
func deferAfterLoop(paths []string) error {
	n := 0
	for range paths {
		n++
	}
	f, err := os.Open(paths[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}

// gotoLoop: an irregular loop built from a label and goto. The
// analyzer walks for and range bodies only, so no finding is expected:
// the module writes no goto outside analysis fixtures, and seeing this
// shape would take a control-flow graph.
func gotoLoop(paths []string) error {
	i := 0
again:
	if i < len(paths) {
		f, err := os.Open(paths[i])
		if err != nil {
			return err
		}
		defer f.Close()
		i++
		goto again
	}
	return nil
}

// whileStyle: `for {` with a conditional break is still a cycle.
func whileStyle(next func() (*os.File, bool)) {
	for {
		f, ok := next()
		if !ok {
			break
		}
		defer f.Close() // want "defer inside a loop"
	}
}

// nested: a defer in an inner loop is reported once, and a defer in a
// function literal inside a loop belongs to that literal.
func nested(rows [][]string) {
	for _, row := range rows {
		for _, p := range row {
			f, err := os.Open(p)
			if err != nil {
				continue
			}
			defer f.Close() // want "defer inside a loop"
		}
		func() {
			f, err := os.Open(row[0])
			if err == nil {
				defer f.Close()
			}
		}()
	}
}
