//go:build !race

package components

const raceEnabled = false
