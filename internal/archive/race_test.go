//go:build race

package archive

// raceEnabled reports a -race build, whose instrumented appends allocate
// what the real program does not.
const raceEnabled = true
