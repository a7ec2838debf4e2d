//go:build race

package main

// raceEnabled reports a -race build, whose detector runtime adds
// frames the attribution does not know.
const raceEnabled = true
