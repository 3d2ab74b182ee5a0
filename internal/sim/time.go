// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock with nanosecond resolution and a
// calendar of scheduled events (with a binary heap for what the calendar
// cannot hold). Events execute in ascending (time, origin, seq) order —
// the instant, the model entity that scheduled the event, and that
// entity's own scheduling count; bit-for-bit the ordering of a pure heap
// over that key — which makes every run reproducible for a fixed seed
// and identical however the model is split across engines.
// Hot paths schedule through typed Handler callbacks on reusable or
// pooled Event slots, so steady-state scheduling allocates nothing.
package sim

import "fmt"

// Time is a simulated instant or duration in nanoseconds. Using a dedicated
// integer type (rather than time.Duration) keeps simulated time clearly
// separated from wall-clock time throughout the codebase.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time in seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// TxTime returns the serialization delay of size bytes on a link of the
// given rate in bits per second. A zero or negative rate transmits
// instantaneously, which is convenient for idealized control channels.
func TxTime(sizeBytes int, rateBps int64) Time {
	if rateBps <= 0 {
		return 0
	}
	return Time(int64(sizeBytes) * 8 * int64(Second) / rateBps)
}
