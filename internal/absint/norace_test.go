//go:build !race

package absint

const raceEnabled = false
