//go:build race

package frontend

const raceEnabled = true
