//go:build race

package absint

const raceEnabled = true
