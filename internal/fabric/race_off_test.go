//go:build !race

package fabric

const raceEnabled = false
