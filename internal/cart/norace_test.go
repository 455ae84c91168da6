//go:build !race

package cart

const raceEnabled = false
