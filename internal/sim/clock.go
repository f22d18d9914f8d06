// Package sim provides the primitives every simulated subsystem shares:
// virtual time, the discrete-event kernel that advances it, and a
// deterministic, seedable random number generator with the
// distribution samplers the device and workload models need.
//
// All simulated latencies are expressed in virtual nanoseconds, and an
// EventLoop's clock is the only clock: it moves forward as events
// fire and never rewinds. Nothing in the simulator reads wall-clock
// time, which makes every experiment reproducible from its seed and
// immune to scheduler or GC noise in the host runtime.
package sim

import "time"

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation. It is deliberately a distinct type from
// time.Duration so that virtual and host time cannot be mixed up.
type Time int64

// Common virtual durations, mirroring package time for readability.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// maxTime is the latest virtual time: the open horizon of
// EventLoop.Run, and of a shard whose inputs can never produce earlier
// mail (e.g. no declared senders).
const maxTime = Time(1<<63 - 1)

// Duration converts a host-time duration into virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the virtual time using time.Duration notation.
func (t Time) String() string { return time.Duration(t).String() }
