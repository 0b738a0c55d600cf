//go:build race

package depend

const raceEnabled = true
