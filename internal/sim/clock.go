// Package sim provides the primitives every simulated subsystem shares:
// a virtual clock and a deterministic, seedable random number generator
// with the distribution samplers the device and workload models need.
//
// All simulated latencies are expressed in virtual nanoseconds and
// accumulated on a Clock. Nothing in the simulator reads wall-clock
// time, which makes every experiment reproducible from its seed and
// immune to scheduler or GC noise in the host runtime.
package sim

import (
	"fmt"
	"time"
)

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

// Clock is a virtual clock. The zero value is a clock at time zero,
// ready to use. Clock is not locked: the simulation core hands control
// to exactly one runnable goroutine at a time — the event loop or the
// single Proc holding the baton — so clock accesses are already
// serialized (see DESIGN.md §4.2).
type Clock struct {
	now Time
}

// NewClock returns a clock starting at the given time.
func NewClock(start Time) *Clock { return &Clock{now: start} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Advancing by a negative
// duration panics: virtual time, unlike benchmark results, must be
// monotone.
func (c *Clock) Advance(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %d", d))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t. It is a no-op if t is in the
// past; the clock never moves backwards.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to zero. Only harness code between runs
// should call this.
func (c *Clock) Reset() { c.now = 0 }
