//go:build race

package server

// raceEnabled reports that the race detector is on: its shadow memory is
// resident but in no class of the memory ledger.
const raceEnabled = true
