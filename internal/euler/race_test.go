//go:build race

package euler

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts and so allocates on Gets that would otherwise hit.
const raceEnabled = true
