package device

import (
	"maps"
	"sort"

	"repro/internal/sim"
)

// DefaultQueueDepth is the scheduler window used when a configuration
// leaves QueueDepth unset — 32, on the scale of SATA NCQ's 31 tags.
const DefaultQueueDepth = 32

// MultiQueue is implemented by devices that service up to K requests
// concurrently (NVMe-style hardware queues). The Queue keeps
// dispatching while fewer than ServiceWidth requests are in flight;
// devices without the method — or reporting a width below 1 — are
// serviced one request at a time, which preserves the single-service
// behavior of the mechanical models bit for bit.
type MultiQueue interface {
	// ServiceWidth reports how many requests the device can service
	// concurrently.
	ServiceWidth() int
}

// Queue is the event-driven request queue in front of a Device: the
// block layer of the simulated stack. Submissions enqueue; a pluggable
// Scheduler picks the service order from a bounded reorder window of
// Depth requests (overflow waits FIFO in an admission backlog, as the
// OS queue above a device's tagged queue does); the device services up
// to its service width (MultiQueue; 1 for the single-service models)
// concurrently and each completion fires as an event on the loop,
// freeing a service slot for the scheduler's next pick.
//
// Queueing delay, scheduler choice, and window depth therefore show up
// in operation latency exactly as they do on real hardware: a request
// submitted while the device is deep in backlog completes late, a
// reordering scheduler at depth 32 beats depth 1 on scattered load,
// and a multi-channel device drains a burst K-wide while a disk chews
// through it serially.
//
// Like everything under the event kernel, Queue is not locked: the
// kernel's one-baton discipline serializes all accesses (DESIGN.md
// §4.2).
type Queue struct {
	dev   Device
	loop  *sim.EventLoop
	sched Scheduler
	hint  IdleHint // sched's idle-timer interface, nil if not implemented
	depth int
	width int // service bound: max requests in flight at the device

	// kickPending dedupes hint-driven kicks: at most one timer event
	// is outstanding at a time.
	kickPending bool

	// backlog holds requests admitted beyond the window. Write-back
	// floods can queue hundreds of thousands of requests behind a
	// millisecond-scale device, so its pops must stay O(1).
	backlog  sim.FIFO[*IORequest]
	inflight int
	head     int64 // LBA just past the last dispatched transfer
	seq      uint64
	stats    QueueStats
}

// QueueStats counts queue-level events. Wait sums time from submission
// to dispatch (queueing delay only, not service) over successfully
// dispatched requests; requests the device rejects at dispatch count
// only under Errors — they consume no service time, so folding them
// into Completed or Wait would skew MeanWait toward zero. MaxQueued is
// the high-water mark of window + backlog occupancy: requests awaiting
// dispatch, excluding the up-to-width in flight at the device.
type QueueStats struct {
	Submitted int64
	Completed int64
	Errors    int64
	MaxQueued int
	Wait      sim.Time
	// PerOwner attributes queueing delay and completions to requester
	// identities (Request.Owner), separating scheduler-induced waiting
	// from device service time per thread. nil until the first
	// dispatch.
	PerOwner map[int]OwnerQueueStats
}

// OwnerQueueStats is one requester's share of the queue counters.
type OwnerQueueStats struct {
	Completed int64
	Wait      sim.Time
}

// MeanWait reports the owner's average queueing delay per completed
// request.
func (s OwnerQueueStats) MeanWait() sim.Time {
	if s.Completed == 0 {
		return 0
	}
	return s.Wait / sim.Time(s.Completed)
}

// MeanWait reports the average queueing delay per completed request.
func (s QueueStats) MeanWait() sim.Time {
	if s.Completed == 0 {
		return 0
	}
	return s.Wait / sim.Time(s.Completed)
}

// Merge folds another queue's counters in: counts and waits add, the
// high-water mark takes the worst queue's. Sharded runs use it to
// report one aggregate over per-shard device queues; owner entries
// never collide there because thread owner IDs are global.
func (s *QueueStats) Merge(other QueueStats) {
	s.Submitted += other.Submitted
	s.Completed += other.Completed
	s.Errors += other.Errors
	if other.MaxQueued > s.MaxQueued {
		s.MaxQueued = other.MaxQueued
	}
	s.Wait += other.Wait
	for _, owner := range other.Owners() {
		o := other.PerOwner[owner]
		s.ownerAdd(owner, o.Wait, o.Completed)
	}
}

// Owners returns the requester identities present in PerOwner in
// ascending order, so reporting surfaces iterate deterministically.
func (s QueueStats) Owners() []int {
	out := make([]int, 0, len(s.PerOwner))
	for o := range s.PerOwner {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// ownerAdd accumulates wait and completions for one requester.
func (s *QueueStats) ownerAdd(owner int, wait sim.Time, completed int64) {
	if s.PerOwner == nil {
		s.PerOwner = make(map[int]OwnerQueueStats)
	}
	o := s.PerOwner[owner]
	o.Wait += wait
	o.Completed += completed
	s.PerOwner[owner] = o
}

// NewQueue builds a queue of the given depth (<= 0 selects
// DefaultQueueDepth) draining into dev under loop. The service bound
// comes from the device: MultiQueue implementations service up to
// ServiceWidth requests concurrently, everything else one at a time.
func NewQueue(dev Device, sched Scheduler, depth int, loop *sim.EventLoop) *Queue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	width := 1
	if mq, ok := dev.(MultiQueue); ok {
		if w := mq.ServiceWidth(); w > 1 {
			width = w
		}
	}
	q := &Queue{dev: dev, loop: loop, sched: sched, depth: depth, width: width}
	q.hint, _ = sched.(IdleHint)
	return q
}

// Width reports the service bound: how many requests may be in flight
// at the device concurrently.
func (q *Queue) Width() int { return q.width }

// InFlight reports requests currently in service at the device.
func (q *Queue) InFlight() int { return q.inflight }

// Stats returns a snapshot of the counters.
func (q *Queue) Stats() QueueStats {
	s := q.stats
	s.PerOwner = maps.Clone(s.PerOwner)
	return s
}

// queued reports requests awaiting dispatch: window plus backlog,
// excluding in-flight.
func (q *Queue) queued() int {
	return q.sched.Len() + q.backlog.Len()
}

// Pending reports requests submitted but not yet completed, including
// those in service.
func (q *Queue) Pending() int {
	return q.queued() + q.inflight
}

// Submit enqueues one request at virtual time at (clamped to the
// loop's now — arrivals cannot predate the present). done, when
// non-nil, is invoked in loop context at the request's completion time,
// as the last act of its event, so done may resume a process with
// sim.Proc.RunEvent; fire-and-forget submissions pass nil.
func (q *Queue) Submit(at sim.Time, req Request, done func(sim.Time, error)) {
	q.submit(at, req, done, nil)
}

// A RemoteSender forwards an event to the shard a request came from:
// fn must run on that shard's loop at virtual time at. The sharded
// engine backs it with ShardedLoop.Send from the device shard to the
// submitting thread shard.
type RemoteSender func(at sim.Time, fn func())

// SubmitRemote enqueues a request on behalf of another shard: done is
// not invoked locally but mailed through send at the completion time,
// where it is the whole of the mailed event, and so its last act.
// Because the device promises done >= dispatch + MinLatency and the
// sharded engine's lookahead is MinLatency, the completion
// mail — sent at dispatch, stamped with the completion time — is
// never clamped: the submitting thread resumes at the exact virtual
// time it would have in a single-loop run. Only requests that error
// at dispatch (validation, injected faults) complete through the
// clamped path, one lookahead late.
func (q *Queue) SubmitRemote(at sim.Time, req Request, send RemoteSender, done func(sim.Time, error)) {
	q.submit(at, req, done, send)
}

func (q *Queue) submit(at sim.Time, req Request, done func(sim.Time, error), remote RemoteSender) {
	if now := q.loop.Now(); at < now {
		at = now
	}
	r := &IORequest{Req: req, At: at, Seq: q.seq, Done: done, queue: q, remote: remote}
	q.seq++
	q.stats.Submitted++
	if q.sched.Len() < q.depth {
		q.sched.Push(r)
	} else {
		q.backlog.Push(r)
	}
	q.dispatch(at)
	// Sample the high-water mark after dispatch, so a request that
	// lands straight on a free service slot never counts as queued;
	// occupancy only grows at submission, so sampling here sees every
	// maximum.
	if n := q.queued(); n > q.stats.MaxQueued {
		q.stats.MaxQueued = n
	}
}

// Kick schedules a dispatch pass at virtual time at — the timer-driven
// re-dispatch hook for policies that deliberately leave the device
// underutilized (CFQ-style anticipatory idling): a scheduler may
// return nil from Pop while holding requests, then have the queue
// re-ask at a chosen instant. A kick that finds every service slot
// busy or Pop still unwilling is a harmless no-op.
func (q *Queue) Kick(at sim.Time) {
	if now := q.loop.Now(); at < now {
		at = now
	}
	q.loop.ScheduleTarget(at, q)
}

// RunEvent implements sim.EventTarget for Kick timers: re-ask the
// scheduler without allocating a closure per kick.
func (q *Queue) RunEvent() {
	q.kickPending = false
	q.dispatch(q.loop.Now())
}

// IdleHint is implemented by schedulers that deliberately return nil
// from Pop while holding requests (anticipatory idling). After such a
// refusal the Queue asks NextKick when to re-dispatch and arms a Kick
// timer for that instant; at most one hint-driven kick is pending at
// a time. ok=false means no timer is wanted (the next Push will
// trigger dispatch anyway).
type IdleHint interface {
	NextKick(now sim.Time) (at sim.Time, ok bool)
}

// dispatch starts service of the scheduler's next picks at time now,
// continuing while the device has a free service slot. Requests that
// fail validation complete with the error at the same instant and
// consume no device time or service slot. Their completion is
// scheduled, not invoked inline: dispatch can run in submitter context
// (inside Submit), and the Done contract promises loop context — a
// callback that unparks the submitting process would otherwise
// deadlock.
func (q *Queue) dispatch(now sim.Time) {
	for q.inflight < q.width {
		r := q.sched.Pop(now, q.head)
		if r == nil {
			// The scheduler may be idling on purpose; let it arm a
			// re-dispatch timer.
			if q.hint != nil && !q.kickPending {
				if at, ok := q.hint.NextKick(now); ok {
					q.kickPending = true
					q.Kick(at)
				}
			}
			return
		}
		q.admit()
		done, err := q.dev.Submit(now, r.Req)
		if err != nil {
			q.stats.Errors++
			if r.remote != nil {
				r.sendRemote(now, err)
			} else {
				q.loop.Schedule(now, func() { q.finish(r, now, err) })
			}
			continue
		}
		q.stats.Wait += now - r.At
		q.stats.ownerAdd(r.Req.Owner, now-r.At, 0)
		q.inflight++
		q.head = r.Req.LBA + r.Req.Sectors
		if r.remote != nil {
			// Mail the completion now, stamped with its (exact) future
			// completion time; local bookkeeping still runs at done via
			// the scheduled target below.
			r.sendRemote(done, nil)
		}
		q.loop.ScheduleTarget(done, r)
	}
}

// sendRemote mails a completion to the submitting shard.
func (r *IORequest) sendRemote(done sim.Time, err error) {
	if r.Done == nil {
		return
	}
	cb := r.Done
	r.remote(done, func() { cb(done, err) })
}

// admit moves the oldest backlog entry into the freed window slot.
func (q *Queue) admit() {
	if q.backlog.Len() > 0 {
		q.sched.Push(q.backlog.Pop())
	}
}

// complete ends one in-service request, refills the freed service
// slot, and only then runs the completion callback — so a woken
// submitter observes a queue that has already moved on, as a real
// interrupt handler would.
func (q *Queue) complete(r *IORequest, err error) {
	now := q.loop.Now()
	q.inflight--
	q.dispatch(now)
	q.finish(r, now, err)
}

// finish runs the completion callback. Only successful requests count
// as Completed; device-rejected ones were already counted under
// Errors at dispatch.
func (q *Queue) finish(r *IORequest, at sim.Time, err error) {
	if err == nil {
		q.stats.Completed++
		q.stats.ownerAdd(r.Req.Owner, 0, 1)
	}
	if r.remote != nil {
		// The completion was already mailed to the owning shard at
		// dispatch; only the local bookkeeping above runs here.
		return
	}
	if r.Done != nil {
		r.Done(at, err)
	}
}
