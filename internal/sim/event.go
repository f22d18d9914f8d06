package sim

// This file is the discrete-event kernel: a binary heap of timestamped
// events with deterministic sequence-number tie-breaking, plus Proc, a
// coroutine-backed simulated process that can block on events. See
// DESIGN.md §2 for the kernel and §4 for the determinism rules.
//
// The kernel is strictly single-baton: at any instant exactly one
// goroutine — the loop owner or the one Proc it handed control to — is
// runnable. A handoff is a direct coroutine switch (iter.Pull), whose
// race annotations give the race detector a total happens-before
// order, so shared simulation state needs no locks.

import (
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
)

// EventLoop is a discrete-event scheduler under virtual time. Events
// fire in (time, sequence) order: ties at the same virtual instant
// resolve in scheduling order, which makes every run bit-identical
// regardless of host parallelism or GC behavior.
type EventLoop struct {
	// now is the loop's clock. It never rewinds: NewEventLoop, Step and
	// WaitUntil's in-place advance only move it forward.
	now  Time
	heap []event
	seq  uint64

	// horizon is the exclusive time bound of the Run or RunBefore in
	// progress, zero otherwise; woken is the Proc the current event
	// resumed from its own scheduled wake, nil otherwise. Together they
	// tell WaitUntil when the loop's next Step would pop its wake.
	horizon Time
	woken   *Proc

	// counters tallies the host work done so far (see Counters).
	counters Counters
}

// Counters tallies the host work an EventLoop has done since it was
// made. The tallies are exact: a run at a given configuration and
// seed counts the same on every host. They describe what it cost to
// simulate, not what was simulated, so no simulated result reads
// them.
type Counters struct {
	// Events counts heap entries Step popped and ran.
	Events uint64
	// Resumes counts baton handoffs to a process: its start, a wake
	// (its own scheduled one, or an event's RunEvent call) or an
	// Unpark. Each costs two coroutine switches, one each way.
	Resumes uint64
	// InPlace counts WaitUntil calls that advanced the clock without
	// yielding the baton.
	InPlace uint64
	// Spawned counts processes started with Go.
	Spawned uint64
}

// event is one heap entry: either a closure (fn) or a pre-bound
// target (tgt), never both. The two forms share one sequence space,
// so mixing them cannot perturb tie-breaking.
type event struct {
	at  Time
	seq uint64
	fn  func()
	tgt EventTarget
}

// EventTarget is a pre-bound event callback. ScheduleTarget enqueues
// one without allocating: the dominant park/unpark and I/O-completion
// events on the hot path schedule a live object (a *Proc, a device
// request) whose callback is fully determined by its identity, and a
// per-event closure would only box that same pointer.
type EventTarget interface {
	// RunEvent fires the event. It runs in loop context, exactly like
	// a closure passed to Schedule.
	RunEvent()
}

// NewEventLoop returns a loop whose clock starts at the given time
// (at zero if start is negative).
func NewEventLoop(start Time) *EventLoop { return &EventLoop{now: max(start, 0)} }

// Now reports the loop's current virtual time.
func (l *EventLoop) Now() Time { return l.now }

// Counters reports the loop's host-work tallies so far.
func (l *EventLoop) Counters() Counters { return l.counters }

// Len reports the number of pending events.
func (l *EventLoop) Len() int { return len(l.heap) }

// Schedule enqueues fn to run at virtual time at. Times in the past
// are clamped to now: an event can never rewind the clock.
func (l *EventLoop) Schedule(at Time, fn func()) {
	if at < l.now {
		at = l.now
	}
	l.heap = append(l.heap, event{at: at, seq: l.seq, fn: fn})
	l.seq++
	l.up(len(l.heap) - 1)
}

// ScheduleTarget enqueues tgt.RunEvent to run at virtual time at,
// with the same past-clamping as Schedule but without allocating a
// closure. With a Reserved heap the call is allocation-free.
func (l *EventLoop) ScheduleTarget(at Time, tgt EventTarget) {
	if at < l.now {
		at = l.now
	}
	l.heap = append(l.heap, event{at: at, seq: l.seq, tgt: tgt})
	l.seq++
	l.up(len(l.heap) - 1)
}

// Reserve grows the heap's capacity to hold at least n pending events
// without reallocating — call it before spawning a known population of
// processes so the measured phase never pays append growth.
func (l *EventLoop) Reserve(n int) {
	if cap(l.heap) >= n {
		return
	}
	heap := make([]event, len(l.heap), n)
	copy(heap, l.heap)
	l.heap = heap
}

// Step pops and runs the earliest event, advancing the clock to its
// timestamp. It reports whether an event ran. A bare Step runs exactly
// one event: a Proc it resumes yields back at its next wait, so the
// caller's code between Steps sees every event boundary.
func (l *EventLoop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	ev := l.heap[0]
	n := len(l.heap) - 1
	l.heap[0] = l.heap[n]
	l.heap[n] = event{} // release the closure/target
	l.heap = l.heap[:n]
	if n > 0 {
		l.down(0)
	}
	l.now = max(l.now, ev.at)
	l.counters.Events++
	if ev.tgt != nil {
		ev.tgt.RunEvent()
	} else {
		ev.fn()
	}
	return true
}

// NextTime reports the timestamp of the earliest pending event, and
// whether one exists. Shard coordinators use it to compute the safe
// horizon; it never pops.
func (l *EventLoop) NextTime() (Time, bool) {
	if len(l.heap) == 0 {
		return 0, false
	}
	return l.heap[0].at, true
}

// RunBefore processes events with timestamps strictly before limit,
// then stops. Events a callback schedules inside the window run within
// the same call; afterwards every pending event is at or past limit.
func (l *EventLoop) RunBefore(limit Time) {
	l.horizon = limit
	for len(l.heap) > 0 && l.heap[0].at < limit {
		l.Step()
	}
	l.horizon = 0
}

// Run processes events until none remain. Procs spawned with Go count
// as events while runnable, so Run returns only when every process has
// finished and all completions have drained.
func (l *EventLoop) Run() {
	l.horizon = maxTime
	for l.Step() {
	}
	l.horizon = 0
}

// popsNext reports whether an event scheduled now for time t would be
// the next one the Run or RunBefore in progress pops: t is before the
// horizon and strictly before every pending event (one at exactly t
// was scheduled earlier, so its smaller sequence number runs first).
func (l *EventLoop) popsNext(t Time) bool {
	return t < l.horizon && (len(l.heap) == 0 || t < l.heap[0].at)
}

// less orders events by (time, sequence).
func (l *EventLoop) less(i, j int) bool {
	if l.heap[i].at != l.heap[j].at {
		return l.heap[i].at < l.heap[j].at
	}
	return l.heap[i].seq < l.heap[j].seq
}

func (l *EventLoop) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !l.less(i, parent) {
			break
		}
		l.heap[i], l.heap[parent] = l.heap[parent], l.heap[i]
		i = parent
	}
}

func (l *EventLoop) down(i int) {
	n := len(l.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		next := left
		if right := left + 1; right < n && l.less(right, left) {
			next = right
		}
		if !l.less(next, i) {
			return
		}
		l.heap[i], l.heap[next] = l.heap[next], l.heap[i]
		i = next
	}
}

// Proc is a simulated process: a coroutine that runs simulation code
// and yields control back to the event loop whenever it waits for an
// external wake-up or for virtual time in which other events come
// first. Exactly one Proc runs at a time; the loop switches to it and
// is suspended until the Proc parks or finishes.
type Proc struct {
	loop *EventLoop
	now  Time
	// next and yield are the two ends of the process's coroutine
	// (iter.Pull): next switches from the resumer into the body and
	// yield back out of it, each directly, without the Go scheduler.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// schedYieldResumes is how many resumes a loop makes between calls to
// runtime.Gosched. Coroutine switches never enter the Go scheduler,
// and with one P (every fsperf child runs at GOMAXPROCS=1) the GC's
// background mark worker runs only when something does. With no
// yield, or one every 1,024 resumes, write-mix's peak RSS is 10–12%
// higher than with one every 32 (DESIGN.md §9.5).
const schedYieldResumes = 32

// Go spawns a process that begins executing body at virtual time
// start. The body runs as a coroutine on a goroutine of its own, which
// ends when the body returns, but only while it holds the baton; it
// must interact with virtual time exclusively through its Proc. A
// panic in the body reaches the resumer as an error that carries the
// process's stack (procPanic).
func (l *EventLoop) Go(start Time, body func(p *Proc)) *Proc {
	p := &Proc{loop: l}
	l.counters.Spawned++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer rethrowWithStack()
		body(p)
	})
	l.ScheduleTarget(start, p)
	return p
}

// procPanic is the value a process's panic resurfaces as in the
// goroutine that resumed it. iter.Pull re-raises a coroutine's panic
// there, where the printed trace holds only the resumer's frames, so
// the process's own stack, taken where it panicked, travels with the
// value.
type procPanic struct {
	value any    // what the process panicked with
	stack []byte // the process's stack at the panic
}

func (e *procPanic) Error() string {
	return fmt.Sprintf("%v\n\nprocess stack:\n%s", e.value, e.stack)
}

// rethrowWithStack, deferred in a process's coroutine, re-panics with
// a *procPanic. One that already is passes through unchanged: it comes
// from a process this one resumed, and its stack is the one to show.
func rethrowWithStack() {
	v := recover()
	if v == nil {
		return
	}
	if _, ok := v.(*procPanic); !ok {
		v = &procPanic{value: v, stack: debug.Stack()}
	}
	panic(v)
}

// resume switches to the process and is suspended until it parks or
// finishes. It runs in the baton holder's context: inside an event, or
// in a process that unparks another.
func (p *Proc) resume() {
	l := p.loop
	l.counters.Resumes++
	if l.counters.Resumes%schedYieldResumes == 0 {
		runtime.Gosched()
	}
	p.now = l.now
	p.next()
}

// RunEvent implements EventTarget: a scheduled Proc resumes. This is
// the park/unpark hot path — WaitUntil and Go schedule the Proc
// itself instead of a fresh closure around resume. Nothing in the
// event runs after the process yields, which is what lets WaitUntil
// advance this process in place (see there).
//
// An event may also call RunEvent itself, instead of Unpark, to resume
// a parked process, provided the call is the event's last act: every
// caller between the event and this call returns as soon as its callee
// does. The process then counts as resumed from its own wake. Where
// any code runs after the process yields, use Unpark.
func (p *Proc) RunEvent() {
	l := p.loop
	l.woken = p
	p.resume()
	l.woken = nil
}

// Now reports the process's virtual time: the loop clock when it last
// resumed or advanced, so it equals its event loop's Now whenever the
// process runs. CPU-only run-ahead is the caller's to account (the workload
// engine keeps a per-thread clock and realigns it with WaitUntil).
func (p *Proc) Now() Time { return p.now }

// WaitUntil blocks the process until virtual time t and returns the
// process's time afterwards. If t is not in the future the call
// returns at once. Otherwise it schedules its wake-up and yields the
// baton to the loop — unless the loop's next Step would pop that very
// wake anyway, in which case it advances the clock to t in place,
// uses up the wake's sequence number and keeps the baton. That holds
// only when all of these do:
//
//   - the loop resumed this process from its own scheduled event (its
//     Go start or an earlier wake), or an event resumed it with
//     RunEvent as its last act; not through Unpark, whose caller must
//     still run at the current instant;
//   - t is strictly before every pending event;
//   - t is before the horizon of the Run or RunBefore in progress (a
//     bare Step runs exactly one event).
//
// Events therefore run in the same (time, sequence) order at the same
// clock either way.
func (p *Proc) WaitUntil(t Time) Time {
	if t <= p.now {
		return p.now
	}
	l := p.loop
	if l.woken == p && l.popsNext(t) {
		l.counters.InPlace++
		l.seq++
		l.now = max(l.now, t)
		p.now = t
		return t
	}
	l.ScheduleTarget(t, p)
	return p.Park()
}

// Sleep waits for d of virtual time, as WaitUntil(Now()+d).
func (p *Proc) Sleep(d Time) Time { return p.WaitUntil(p.now + d) }

// Park yields the baton until some event calls Unpark. It returns the
// virtual time at which the process was woken. The caller must have
// arranged a wake-up first, or the process sleeps forever.
func (p *Proc) Park() Time {
	p.yield(struct{}{})
	return p.now
}

// Unpark resumes a parked process at the loop's current time and hands
// it the baton until it parks again. The caller is an event callback
// (a Backlog's Put hands an arrival straight to an idle server) or
// another running process (the write-back daemon resumes writers
// parked on dirty pages); either way it runs on at the same instant
// once the process yields, so the process yields at its next wait
// instead of advancing in place.
func (p *Proc) Unpark() { p.resume() }
