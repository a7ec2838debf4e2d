//go:build race

package devent

// raceEnabled reports a race-detector build (see raceKept).
const raceEnabled = true
