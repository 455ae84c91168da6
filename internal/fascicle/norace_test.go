//go:build !race

package fascicle

const raceEnabled = false
