package sim

// Backlog is an open-loop queue (DESIGN.md §2): a source puts items
// stamped with their arrival time, whether or not a server is free,
// and server processes take them in arrival order. The workload
// engine's open-loop classes and timed trace replay both offer load
// through one. Its arrays are reused, so a backlog that keeps
// draining allocates nothing once they have grown.
type Backlog[T any] struct {
	items  FIFO[arrival[T]]
	idle   FIFO[*Server[T]]
	closed bool
}

// arrival is one queued item with its arrival time.
type arrival[T any] struct {
	at Time
	v  T
}

// Server is one process serving a Backlog.
type Server[T any] struct {
	b *Backlog[T]
	p *Proc
}

// Put appends an item that arrived at at. If a server is idle, the
// longest-idle one resumes with Unpark: the caller, an event or
// another process, runs on at the same instant once the server yields.
func (b *Backlog[T]) Put(at Time, v T) {
	b.items.Push(arrival[T]{at: at, v: v})
	if b.idle.Len() > 0 {
		b.idle.Pop().p.Unpark()
	}
}

// Close ends the arrivals. Every idle server resumes, in park order,
// with Unpark; a server's Take reports not-ok once the backlog is both
// drained and closed.
func (b *Backlog[T]) Close() {
	b.closed = true
	for b.idle.Len() > 0 {
		b.idle.Pop().p.Unpark()
	}
}

// Serve makes p a server of the backlog.
func (b *Backlog[T]) Serve(p *Proc) *Server[T] { return &Server[T]{b: b, p: p} }

// Take waits for the oldest item and returns it with its arrival time.
// now is the server's own clock. It moves forward to a later wake, and
// to the item's arrival time, which the process then waits until. Take
// reports not-ok, taking nothing, once the backlog is drained and
// closed, or once now reaches until: a server past the horizon
// abandons what is left.
func (s *Server[T]) Take(now *Time, until Time) (at Time, v T, ok bool) {
	b, p := s.b, s.p
	for b.items.Len() == 0 {
		if b.closed {
			return 0, v, false
		}
		if *now > p.Now() {
			// The clock ran ahead on CPU time: check for work there,
			// in loop context (RunEvent), rather than realign the
			// process only to find the backlog still empty.
			p.loop.ScheduleTarget(*now, s)
		} else {
			b.idle.Push(s)
		}
		if t := p.Park(); t > *now {
			*now = t
		}
	}
	if *now >= until {
		return 0, v, false
	}
	it := b.items.Pop()
	*now = max(*now, it.at)
	p.WaitUntil(*now)
	return it.at, it.v, true
}

// RunEvent implements EventTarget: the idle check of a server whose
// clock ran ahead of the loop, at that clock. If the backlog is still
// drained and open the server goes idle; otherwise its process
// resumes, as the event's last act, and so as from its own wake.
func (s *Server[T]) RunEvent() {
	if b := s.b; b.items.Len() == 0 && !b.closed {
		b.idle.Push(s)
		return
	}
	s.p.RunEvent()
}

// FIFO is a queue over one reusable array; its zero value is empty.
// Popped slots are zeroed so they hold no references, and the array is
// reused once it drains. A queue that never drains slides its live
// entries to the front, rather than growing, once more than half of a
// full array is spent, so its memory stays proportional to its peak
// length and every operation is amortized O(1).
type FIFO[E any] struct {
	buf  []E
	head int
}

// Len reports the number of queued entries.
func (q *FIFO[E]) Len() int { return len(q.buf) - q.head }

// Push appends e at the back.
func (q *FIFO[E]) Push(e E) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, e)
}

// Pop removes and returns the front entry. The queue must not be
// empty.
func (q *FIFO[E]) Pop() E {
	e := q.buf[q.head]
	var zero E
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}
