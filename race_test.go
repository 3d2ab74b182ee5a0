//go:build race

package netfence

// raceEnabled reports a -race build, whose allocation counts tests
// cannot pin.
const raceEnabled = true
