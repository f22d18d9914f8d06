package vfs

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestEventModeBlockingRead checks the blocking/completion plumbing:
// inside an event-mode process, a cold read parks until the device
// completion fires, and two processes reading concurrently contend for
// the one device.
func TestEventModeBlockingRead(t *testing.T) {
	m := newMount(t, 4, 0) // tiny cache: everything misses
	fd := mkFile(t, m, "/f", 1<<20)
	if _, err := m.SyncAll(0); err != nil {
		t.Fatal(err)
	}
	m.PC.L1.Flush()

	loop := sim.NewEventLoop(0)
	enterEvents(t, m, loop)
	// Direct BeginEvents users must release the write-back daemon
	// themselves, or its periodic wake-up keeps the loop alive forever
	// (the engine does this when its last thread finishes).
	m.StopWriteback()
	var solo sim.Time
	loop.Go(0, func(p *sim.Proc) {
		m.SetProc(p, 1)
		_, done, err := m.Read(p.Now(), fd, 0, 4096)
		if err != nil {
			t.Error(err)
		}
		solo = done
	})
	loop.Run()
	m.EndEvents()
	if solo == 0 {
		t.Fatal("event-mode read did not complete")
	}

	// Two concurrent cold readers: one must queue behind the other, so
	// the later completion exceeds the solo latency.
	m.PC.L1.Flush()
	loop = sim.NewEventLoop(0)
	q := enterEvents(t, m, loop)
	m.StopWriteback()
	var dones []sim.Time
	for i := 0; i < 2; i++ {
		off := int64(i) * 512 << 10
		owner := i + 1
		loop.Go(0, func(p *sim.Proc) {
			m.SetProc(p, owner)
			_, done, err := m.Read(p.Now(), fd, off, 4096)
			if err != nil {
				t.Error(err)
			}
			dones = append(dones, done)
		})
	}
	loop.Run()
	m.EndEvents()
	stats := q.Stats()
	if len(dones) != 2 {
		t.Fatalf("completions = %d, want 2", len(dones))
	}
	last := dones[0]
	if dones[1] > last {
		last = dones[1]
	}
	if last <= solo {
		t.Errorf("contended completion %v not later than solo %v", last, solo)
	}
	if stats.Completed == 0 {
		t.Error("queue stats recorded no completions")
	}
}

// TestEventModeBadScheduler ensures NewQueue, which every engine calls
// before the mount enters event mode, surfaces configuration errors.
func TestEventModeBadScheduler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = "deadline"
	m := newMount(t, 64, 0)
	m.cfg = cfg
	if _, err := m.NewQueue(sim.NewEventLoop(0)); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// enterEvents puts m into event mode on loop over a queue of its own,
// as the engines do, and returns the queue.
func enterEvents(t testing.TB, m *Mount, loop *sim.EventLoop) *device.Queue {
	t.Helper()
	q, err := m.NewQueue(loop)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginEvents(loop, q)
	return q
}

// ownerRecorder wraps a Device and records the Owner of every request
// it services.
type ownerRecorder struct {
	device.Device
	owners []int
}

func (r *ownerRecorder) Submit(at sim.Time, req device.Request) (sim.Time, error) {
	r.owners = append(r.owners, req.Owner)
	return r.Device.Submit(at, req)
}

// TestEventModeOwnerSurvivesPark is the attribution regression: a
// process that parks (waiting for a completion) must keep submitting
// under its own identity afterwards, even though another thread's
// SetProc rebound the mount while it slept. Without restoring
// curOwner at every yield point, every request after the first park —
// from both processes — is stamped with whichever owner ran last,
// and CFQ quietly collapses to a single queue.
func TestEventModeOwnerSurvivesPark(t *testing.T) {
	m := newMount(t, 4, 0) // tiny cache: every page read misses
	fd := mkFile(t, m, "/f", 1<<20)
	if _, err := m.SyncAll(0); err != nil {
		t.Fatal(err)
	}
	m.PC.L1.Flush()

	rec := &ownerRecorder{Device: m.Dev}
	m.Dev = rec
	loop := sim.NewEventLoop(0)
	enterEvents(t, m, loop)
	m.StopWriteback()
	// Two interleaved multi-page cold reads: each proc parks once per
	// page, so the mount is rebound many times mid-operation.
	for i := 0; i < 2; i++ {
		owner := i + 1
		off := int64(i) * 512 << 10
		loop.Go(0, func(p *sim.Proc) {
			m.SetProc(p, owner)
			now := p.Now()
			for pg := 0; pg < 4; pg++ {
				m.SetProc(p, owner)
				_, done, err := m.Read(now, fd, off+int64(pg)*4096, 4096)
				if err != nil {
					t.Error(err)
				}
				now = done
			}
		})
	}
	loop.Run()
	m.EndEvents()

	counts := map[int]int{}
	for _, o := range rec.owners {
		counts[o]++
	}
	// Each owner's 4 data-page reads (plus its metadata misses — the
	// two offsets need different indirect blocks, so exact counts
	// differ) must carry its own identity. Pre-fix, owner 1 appeared
	// exactly once: everything after the first park was stamped 2.
	if counts[1] < 4 || counts[2] < 4 {
		t.Errorf("requests misattributed after park: %v (owners %v)", counts, rec.owners)
	}
}
