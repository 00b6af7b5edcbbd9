//go:build !race

package verifai

const raceEnabled = false
