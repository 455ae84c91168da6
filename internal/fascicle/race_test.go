//go:build race

package fascicle

// raceEnabled reports a -race build, whose instrumented appends allocate
// what the real program does not.
const raceEnabled = true
