//go:build !race

package netfence

const raceEnabled = false
