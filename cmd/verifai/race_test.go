//go:build race

package main

// raceEnabled reports that the race detector is on: its allocator lays
// the heap out otherwise.
const raceEnabled = true
