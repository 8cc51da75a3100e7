//go:build !race

package ssb

const raceEnabled = false
