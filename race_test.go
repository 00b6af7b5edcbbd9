//go:build race

package verifai

// raceEnabled reports that the race detector is on: it slows verifies
// tenfold, and heap audits run without it.
const raceEnabled = true
