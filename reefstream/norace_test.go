//go:build !race

package reefstream

const raceEnabled = false
