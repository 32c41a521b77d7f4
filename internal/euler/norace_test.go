//go:build !race

package euler

const raceEnabled = false
