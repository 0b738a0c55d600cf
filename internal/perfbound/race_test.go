//go:build race

package perfbound

const raceEnabled = true
