package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestEventLoopOrdersByTime(t *testing.T) {
	l := NewEventLoop(0)
	var got []int
	for i, at := range []Time{30, 10, 20, 5, 25} {
		i, at := i, at
		l.Schedule(at, func() {
			got = append(got, i)
			if l.Now() != at {
				t.Errorf("event %d ran at %v, want %v", i, l.Now(), at)
			}
		})
	}
	l.Run()
	want := []int{3, 1, 2, 4, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestEventLoopTieBreaksBySequence(t *testing.T) {
	l := NewEventLoop(0)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		l.Schedule(42, func() { got = append(got, i) })
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of scheduling order: %v", got)
		}
	}
}

func TestEventLoopClampsPast(t *testing.T) {
	l := NewEventLoop(100)
	ran := false
	l.Schedule(10, func() {
		ran = true
		if l.Now() != 100 {
			t.Errorf("past event ran at %v, want clamp to 100", l.Now())
		}
	})
	l.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
	if got := NewEventLoop(-5).Now(); got != 0 {
		t.Errorf("loop created at -5 starts at %v, want 0", got)
	}
}

func TestEventLoopCascade(t *testing.T) {
	// Events scheduling further events keep the clock monotone.
	l := NewEventLoop(0)
	var times []Time
	var chain func()
	chain = func() {
		times = append(times, l.Now())
		if len(times) < 5 {
			l.Schedule(l.Now()+7, chain)
		}
	}
	l.Schedule(3, chain)
	l.Run()
	for i := 1; i < len(times); i++ {
		if times[i] != times[i-1]+7 {
			t.Fatalf("cascade times %v", times)
		}
	}
}

func TestProcSleepAndInterleave(t *testing.T) {
	l := NewEventLoop(0)
	var trace []string
	mk := func(name string, period Time) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(period)
				trace = append(trace, fmt.Sprintf("%s@%d", name, p.Now()))
			}
		}
	}
	l.Go(0, mk("a", 10))
	l.Go(0, mk("b", 15))
	l.Run()
	// At t=30 both procs wake; b scheduled its wake first (at t=15,
	// vs a's at t=20), so the sequence tie-break runs b first.
	want := "[a@10 b@15 a@20 b@30 a@30 b@45]"
	if got := fmt.Sprint(trace); got != want {
		t.Errorf("interleaving = %v, want %v", got, want)
	}
}

func TestProcParkUnpark(t *testing.T) {
	l := NewEventLoop(0)
	var woke Time
	var p *Proc
	p = l.Go(0, func(p *Proc) {
		woke = p.Park()
	})
	l.Schedule(90, func() { p.Unpark() })
	l.Run()
	if woke != 90 {
		t.Errorf("proc woke at %v, want 90", woke)
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() string {
		l := NewEventLoop(0)
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			l.Go(Time(i%3), func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(Time(1 + (i*7+j*13)%5))
					trace = append(trace, fmt.Sprintf("%d:%d@%d", i, j, p.Now()))
				}
			})
		}
		l.Run()
		return fmt.Sprint(trace)
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
}

func TestProcRunsAheadLocally(t *testing.T) {
	// WaitUntil in the past is a no-op: CPU-only work is accounted on
	// the proc's local clock without a yield.
	l := NewEventLoop(0)
	yields := 0
	l.Go(5, func(p *Proc) {
		before := p.Now()
		if got := p.WaitUntil(before - 3); got != before {
			t.Errorf("WaitUntil(past) = %v, want %v", got, before)
		}
		p.Sleep(10)
		yields++
	})
	l.Run()
	if yields != 1 {
		t.Fatal("proc body did not complete")
	}
}

// TestProcRunning checks that the loop records which process holds the
// baton: none in an event callback or after Run; the process itself in
// its body after its start, after a wake that yielded and after an
// in-place advance; and the outer process again once a process it
// unparked yields back.
func TestProcRunning(t *testing.T) {
	l := NewEventLoop(0)
	check := func(where string, want *Proc) {
		t.Helper()
		if got := l.Running(); got != want {
			t.Errorf("%s: Running() = %p, want %p", where, got, want)
		}
	}
	var inner, outer *Proc
	inner = l.Go(0, func(p *Proc) {
		check("inner, after its start", inner)
		p.Park()
		check("inner, unparked by outer", inner)
	})
	outer = l.Go(0, func(p *Proc) {
		check("outer, after its start", outer)
		p.Sleep(10) // the event at 5 comes first: a yield
		check("outer, after a wake that yielded", outer)
		p.Sleep(10) // nothing pending: an in-place advance
		check("outer, after an in-place advance", outer)
		inner.Unpark()
		check("outer, after unparking inner", outer)
	})
	l.Schedule(5, func() { check("event callback", nil) })
	l.Run()
	check("after Run", nil)
	if c := l.Counters(); c.InPlace != 1 || c.Resumes != 4 {
		t.Errorf("counters %+v, want 1 in-place advance and 4 resumes", c)
	}
}

// TestProcGoroutinesExit checks that a process's goroutine ends with
// its body: once a loop has run 1,000 processes dry, the goroutine
// count falls back to where it started. A coroutine's goroutine exits
// as it switches back for the last time, but the count is a runtime
// tally the test does not own, so it polls the count against a
// deadline rather than sampling it once.
func TestProcGoroutinesExit(t *testing.T) {
	before := runtime.NumGoroutine()
	l := NewEventLoop(0)
	for i := range 1000 {
		l.Go(Time(i%7), func(p *Proc) { p.Sleep(1) })
	}
	l.Run()
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live after the loop ran dry, %d before it", n, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcPanicKeepsStack checks that a process's panic reaches the
// loop's caller with the process's own stack: the coroutine re-raises
// it on the resumer's goroutine, whose trace alone would not name the
// function that panicked.
func TestProcPanicKeepsStack(t *testing.T) {
	l := NewEventLoop(0)
	l.Go(0, func(p *Proc) {
		p.Sleep(1)
		panicInProcess()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		l.Run()
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("recovered %T %v, want an error", got, got)
	}
	for _, want := range []string{"accounting invariant broken", "panicInProcess"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic value lacks %q:\n%s", want, err)
		}
	}
}

func panicInProcess() { panic("accounting invariant broken") }

func BenchmarkEventLoopScheduleStep(b *testing.B) {
	l := NewEventLoop(0)
	for i := 0; i < b.N; i++ {
		l.Schedule(l.Now()+1, func() {})
		l.Step()
	}
}

// TestWaitUntilFastPathBoundaries pins where WaitUntil must still
// yield the baton. Each trace of label@Now() was captured from the
// kernel as it was before WaitUntil could advance in place; dropping
// any one condition of that fast path changes at least one of them.
// inPlace counts the waits that kept the baton.
func TestWaitUntilFastPathBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		run     func(l *EventLoop, rec func(string))
		want    string
		inPlace uint64
	}{{
		// An event scheduled for exactly t runs before a process that
		// then waits until t: its sequence number is smaller.
		name: "event-at-t-runs-first",
		run: func(l *EventLoop, rec func(string)) {
			l.Schedule(10, func() { rec("event") })
			l.Go(0, func(p *Proc) {
				p.WaitUntil(10)
				rec("proc")
			})
			l.Run()
		},
		want: "event@10 proc@10",
	}, {
		// A worker that a generator process unparks yields at its
		// Sleep: the generator's next line still runs at the instant
		// of the Unpark.
		name: "process-unparks-process",
		run: func(l *EventLoop, rec func(string)) {
			w := l.Go(0, func(p *Proc) {
				p.Park()
				rec("worker-woke")
				p.Sleep(5)
				rec("worker-slept")
			})
			l.Go(0, func(p *Proc) {
				p.Sleep(10)
				rec("gen-unpark")
				w.Unpark()
				rec("gen-after")
				p.Sleep(10)
				rec("gen-done")
			})
			l.Run()
		},
		want:    "gen-unpark@10 worker-woke@10 gen-after@10 worker-slept@15 gen-done@20",
		inPlace: 1, // the generator's first Sleep
	}, {
		// Likewise for a process an event callback unparks: the
		// callback's code after Unpark sees an unchanged clock.
		name: "event-unparks-process",
		run: func(l *EventLoop, rec func(string)) {
			w := l.Go(0, func(p *Proc) {
				p.Park()
				rec("proc-woke")
				p.Sleep(5)
				rec("proc-slept")
			})
			l.Schedule(10, func() {
				rec("event-unpark")
				w.Unpark()
				rec("event-after")
			})
			l.Run()
		},
		want: "event-unpark@10 proc-woke@10 event-after@10 proc-slept@15",
	}, {
		// An event whose last act resumes the process through its
		// RunEvent resumes it as from its own wake: nothing in the
		// event runs after the process yields, so its Sleep advances
		// in place where the Unpark above yields. The trace is the
		// one above without the after-label.
		name: "event-resumes-process-last",
		run: func(l *EventLoop, rec func(string)) {
			w := l.Go(0, func(p *Proc) {
				p.Park()
				rec("proc-woke")
				p.Sleep(5)
				rec("proc-slept")
			})
			l.ScheduleTarget(10, &testTarget{fn: func() {
				rec("event-unpark")
				w.RunEvent()
			}})
			l.Run()
		},
		want:    "event-unpark@10 proc-woke@10 proc-slept@15",
		inPlace: 1,
	}, {
		// RunBefore stops a lone sleeper at its horizon: it returns
		// before limit with the first wake at or past limit pending.
		name: "run-before-horizon",
		run: func(l *EventLoop, rec func(string)) {
			l.Go(0, func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Sleep(3)
					rec("proc")
				}
			})
			l.RunBefore(10)
			next, _ := l.NextTime()
			rec(fmt.Sprintf("returned next=%d", next))
			l.Run()
			rec("done")
		},
		want:    "proc@3 proc@6 proc@9 returned next=12@9 proc@12 proc@15 done@15",
		inPlace: 4, // every wake but the one at the horizon
	}, {
		// A bare Step runs exactly one wake of a lone sleeper and
		// leaves the next one pending, also after an earlier Run.
		name: "bare-step",
		run: func(l *EventLoop, rec func(string)) {
			l.Schedule(0, func() { rec("warm-up") })
			l.Run()
			l.Go(0, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(4)
					rec("proc")
				}
			})
			l.Step()
			rec(fmt.Sprintf("step pending=%d", l.Len()))
			l.Step()
			next, _ := l.NextTime()
			rec(fmt.Sprintf("step next=%d", next))
			l.Run()
			rec("done")
		},
		want:    "warm-up@0 step pending=1@0 proc@4 step next=8@4 proc@8 proc@12 done@12",
		inPlace: 1, // the wake Run resumed
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewEventLoop(0)
			var trace []string
			tc.run(l, func(label string) {
				trace = append(trace, fmt.Sprintf("%s@%d", label, l.Now()))
			})
			if got := strings.Join(trace, " "); got != tc.want {
				t.Errorf("trace\n got %s\nwant %s", got, tc.want)
			}
			if got := l.Counters().InPlace; got != tc.inPlace {
				t.Errorf("%d waits advanced in place, want %d", got, tc.inPlace)
			}
		})
	}
}

// BenchmarkProcHandoff times one Sleep that yields the baton: two
// processes whose wakes interleave, so the other's wake is always due
// first and every Sleep parks and is resumed by the loop.
func BenchmarkProcHandoff(b *testing.B) {
	l := NewEventLoop(0)
	sleeper := func(n int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(2)
			}
		}
	}
	l.Go(0, sleeper((b.N+1)/2))
	l.Go(1, sleeper(b.N/2))
	b.ResetTimer()
	l.Run()
}

// BenchmarkProcSleepAlone times one Sleep of a lone process: its wake
// is always the loop's next event, so WaitUntil advances in place.
func BenchmarkProcSleepAlone(b *testing.B) {
	l := NewEventLoop(0)
	l.Go(0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	l.Run()
}

func TestScheduleTargetOrdersWithSchedule(t *testing.T) {
	// Both APIs share one sequence space: interleaved same-time events
	// fire in call order.
	l := NewEventLoop(0)
	var got []int
	tg := &testTarget{fn: func() { got = append(got, 1) }}
	l.Schedule(5, func() { got = append(got, 0) })
	l.ScheduleTarget(5, tg)
	l.Schedule(5, func() { got = append(got, 2) })
	l.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

type testTarget struct{ fn func() }

func (t *testTarget) RunEvent() { t.fn() }

func TestScheduleTargetAllocFree(t *testing.T) {
	l := NewEventLoop(0)
	l.Reserve(16)
	tg := &testTarget{fn: func() {}}
	allocs := testing.AllocsPerRun(100, func() {
		l.ScheduleTarget(l.Now()+1, tg)
		l.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleTarget allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkScheduleAlloc pins the hot-path allocation fix: the
// park/unpark and completion path schedules a pre-bound target with
// zero allocations, where the closure form allocates per call.
func BenchmarkScheduleAlloc(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		l := NewEventLoop(0)
		l.Reserve(16)
		p := &Proc{loop: l}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The pre-fix form: a method-value closure per schedule.
			l.Schedule(l.Now()+1, p.resume)
			// Drop it without running (resume would block): pop the
			// heap entry by hand.
			l.heap = l.heap[:0]
		}
	})
	b.Run("target", func(b *testing.B) {
		l := NewEventLoop(0)
		l.Reserve(16)
		p := &Proc{loop: l}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.ScheduleTarget(l.Now()+1, p)
			l.heap = l.heap[:0]
		}
	})
}
