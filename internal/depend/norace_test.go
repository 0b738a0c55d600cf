//go:build !race

package depend

const raceEnabled = false
