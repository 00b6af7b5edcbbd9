//go:build !race

package invindex

const raceEnabled = false
