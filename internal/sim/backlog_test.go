package sim

import (
	"fmt"
	"strings"
	"testing"
)

// backlogServer spawns a server of b that records each item it takes
// as "name item/arrival", and its exit as "name done". serve services
// an item and returns the server's clock after it.
func backlogServer(l *EventLoop, b *Backlog[string], name string, until Time, serve func(p *Proc, now Time, v string) Time, rec func(string)) {
	l.Go(0, func(p *Proc) {
		srv := b.Serve(p)
		now := p.Now()
		for {
			at, v, ok := srv.Take(&now, until)
			if !ok {
				rec(name + " done")
				return
			}
			rec(fmt.Sprintf("%s %s/%d", name, v, at))
			now = serve(p, now, v)
		}
	})
}

// sleep services an item by sleeping for d, as a process blocked on
// I/O does.
func sleep(d Time) func(*Proc, Time, string) Time {
	return func(p *Proc, _ Time, _ string) Time { return p.Sleep(d) }
}

// TestBacklog pins how a backlog hands items to its servers. Each
// trace lists label@Now(); resumes counts process resumes, which the
// idle check exists to save, and inPlace the waits that advanced in
// place.
func TestBacklog(t *testing.T) {
	cases := []struct {
		name    string
		run     func(l *EventLoop, b *Backlog[string], rec func(string))
		want    string
		resumes uint64
		inPlace uint64
		left    int // items still queued at the end
	}{{
		// Items go out in arrival order, each to the longest-idle
		// server; items that find no server idle wait for the first
		// to come back. Close resumes the idle servers in park order,
		// which by then differs from spawn order.
		name: "fifo-park-order-close",
		run: func(l *EventLoop, b *Backlog[string], rec func(string)) {
			for _, name := range []string{"s0", "s1", "s2"} {
				backlogServer(l, b, name, maxTime, sleep(5), rec)
			}
			l.Schedule(10, func() {
				for _, v := range []string{"a", "b", "c", "d", "e"} {
					b.Put(10, v)
				}
			})
			l.Schedule(30, func() {
				b.Put(30, "f")
				b.Put(30, "g")
			})
			l.Schedule(40, b.Close)
			l.Run()
		},
		want: "s0 a/10@10 s1 b/10@10 s2 c/10@10 s0 d/10@15 s1 e/10@15 " +
			"s2 f/30@30 s0 g/30@30 s1 done@40 s2 done@40 s0 done@40",
		// 3 starts, 5 Puts to idle servers, 3 wakes at 15, 2 at 20,
		// 2 at 35 and 3 from Close.
		resumes: 18,
	}, {
		// x and z take 5 of CPU time, which runs the server's clock
		// ahead of the loop; y is slept off. Out of work with its
		// clock at 15, the server checks for work there, in loop
		// context. y arrived at 12, so the check resumes it as from
		// its own wake: it takes y at 15, and its Sleep advances in
		// place. At 35 nothing has arrived, so the check leaves it
		// idle without a resume.
		name: "idle-check-at-own-clock",
		run: func(l *EventLoop, b *Backlog[string], rec func(string)) {
			backlogServer(l, b, "s0", maxTime, func(p *Proc, now Time, v string) Time {
				if v == "y" {
					return p.Sleep(5)
				}
				return now + 5
			}, rec)
			l.Schedule(10, func() { b.Put(10, "x") })
			l.Schedule(12, func() { b.Put(12, "y") })
			l.Schedule(30, func() { b.Put(30, "z") })
			l.Schedule(40, b.Close)
			l.Run()
		},
		want: "s0 x/10@10 s0 y/12@15 s0 z/30@30 s0 done@40",
		// The start, x, the check at 15, z and Close.
		resumes: 5,
		inPlace: 1,
	}, {
		// A server whose clock reaches the horizon abandons the
		// backlog: y stays queued, and Close finds no server idle.
		name: "horizon-abandons",
		run: func(l *EventLoop, b *Backlog[string], rec func(string)) {
			backlogServer(l, b, "s0", 50, sleep(40), rec)
			l.Schedule(10, func() { b.Put(10, "x") })
			l.Schedule(20, func() { b.Put(20, "y") })
			l.Schedule(60, b.Close)
			l.Run()
		},
		want:    "s0 x/10@10 s0 done@50",
		resumes: 3, // the start, x and the wake at 50
		left:    1,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewEventLoop(0)
			var b Backlog[string]
			var trace []string
			tc.run(l, &b, func(label string) {
				trace = append(trace, fmt.Sprintf("%s@%d", label, l.Now()))
			})
			if got := strings.Join(trace, " "); got != tc.want {
				t.Errorf("trace\n got %s\nwant %s", got, tc.want)
			}
			if c := l.Counters(); c.Resumes != tc.resumes || c.InPlace != tc.inPlace {
				t.Errorf("%d resumes and %d waits in place, want %d and %d", c.Resumes, c.InPlace, tc.resumes, tc.inPlace)
			}
			if got := b.items.Len(); got != tc.left {
				t.Errorf("%d items left, want %d", got, tc.left)
			}
		})
	}
}

// TestBacklogAllocFree pins that a Put to an idle server, its Take,
// and its idle check at its own clock allocate nothing once the
// backlog's arrays have grown.
func TestBacklogAllocFree(t *testing.T) {
	l := NewEventLoop(0)
	l.Reserve(16)
	var b Backlog[int]
	l.Go(0, func(p *Proc) {
		srv := b.Serve(p)
		now := p.Now()
		for {
			if _, _, ok := srv.Take(&now, maxTime); !ok {
				return
			}
			now++ // a cache hit: the clock runs ahead of the loop
		}
	})
	l.Step() // the server starts and goes idle
	src := &testTarget{fn: func() { b.Put(l.Now(), 1) }}
	allocs := testing.AllocsPerRun(100, func() {
		l.ScheduleTarget(l.Now()+1, src)
		l.Step() // the Put resumes the server, which schedules its idle check
		l.Step() // the idle check finds the backlog drained
	})
	if allocs != 0 {
		t.Errorf("a Put/Take/idle cycle allocated %.1f objects, want 0", allocs)
	}
	b.Close()
	l.Run()
}

// TestFifoSlidesInsteadOfGrowing: a queue that never drains keeps its
// order, and its array stays proportional to its length rather than
// to everything ever pushed.
func TestFifoSlidesInsteadOfGrowing(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for ; next < 10; next++ {
		q.Push(next)
	}
	for i := 0; i < 10000; i++ {
		q.Push(next)
		next++
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
		want++
	}
	if q.Len() != 10 || cap(q.buf) > 32 {
		t.Errorf("len %d cap %d after 10010 pushes with 10 live, want len 10 and cap <= 32", q.Len(), cap(q.buf))
	}
}
