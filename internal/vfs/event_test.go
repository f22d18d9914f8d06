package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext3sim"
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
	var solo sim.Time
	loop.Go(0, func(p *sim.Proc) {
		_, done, err := m.Read(p.Now(), fd, 0, 4096)
		if err != nil {
			t.Error(err)
		}
		solo = done
	}).Owner = 1
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
	var dones []sim.Time
	for i := 0; i < 2; i++ {
		off := int64(i) * 512 << 10
		loop.Go(0, func(p *sim.Proc) {
			_, done, err := m.Read(p.Now(), fd, off, 4096)
			if err != nil {
				t.Error(err)
			}
			dones = append(dones, done)
		}).Owner = i + 1
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
// as the engines do, and returns the queue. It counts no processes, so
// the write-back daemon is retired at once: its first wake ends it
// instead of keeping the loop alive forever.
func enterEvents(t testing.TB, m *Mount, loop *sim.EventLoop) *device.Queue {
	t.Helper()
	q, err := m.NewQueue(loop)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginEvents(loop, q, 0)
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
// under its own identity afterwards, though another process ran while
// it slept. The mount stamps the running process's Owner at every
// submission; an owner recorded anywhere else, and left stale by a
// park, would stamp every later request, from both processes, with
// whichever owner ran last, and CFQ would quietly collapse to a single
// queue.
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
	// Two interleaved multi-page cold reads: each proc parks once per
	// page, so the other runs many times mid-operation.
	for i := 0; i < 2; i++ {
		off := int64(i) * 512 << 10
		loop.Go(0, func(p *sim.Proc) {
			now := p.Now()
			for pg := 0; pg < 4; pg++ {
				_, done, err := m.Read(now, fd, off+int64(pg)*4096, 4096)
				if err != nil {
					t.Error(err)
				}
				now = done
			}
		}).Owner = i + 1
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

// requestHasher wraps a Device and hashes every request it services:
// submit and completion time, op, range, owner and error. It counts
// requests per owner.
type requestHasher struct {
	device.Device
	h      hash.Hash
	owners map[int]int
}

func (r *requestHasher) Submit(at sim.Time, req device.Request) (sim.Time, error) {
	done, err := r.Device.Submit(at, req)
	fmt.Fprintf(r.h, "%d %d %v %d %d %d %v\n", at, done, req.Op, req.LBA, req.Sectors, req.Owner, err)
	r.owners[req.Owner]++
	return done, err
}

// TestEventModeOwnerAtEveryPark pins attribution across every park
// site of the mount: a blocking read, the dirty throttle, an Fsync's
// batch, its wait on the daemon's in-flight write-back, and the daemon
// itself. Two processes on ext3 Ordered on the HDD, behind a 256-page
// cache, each create a file and run 48 rounds of a cold 4 KB random
// read of their own 1 MB file and a 16 KB append, with an Fsync every
// 16 rounds; then each sleeps 600 ms, past the daemon's wake, and
// Fsyncs once more. Every request the device services, and the final
// VFS, cache, queue and device counters, go into one sha256.
func TestEventModeOwnerAtEveryPark(t *testing.T) {
	const want = "4ea4f91b3525171b0db6365cf2ee7d7afe9abe23e6d98bf1c03c21a154263d74"
	fsys, err := ext3sim.New(262144, ext3sim.Ordered) // 1 GB
	if err != nil {
		t.Fatal(err)
	}
	hdd := device.NewHDD(device.DefaultHDD(), sim.NewRNG(31))
	m := New(fsys, hdd, cache.NewHierarchy(cache.New(256, cache.NewLRU()), nil), DefaultConfig())
	var src []*FD
	var now sim.Time
	for i := range 2 {
		fd, done, err := m.Create(now, fmt.Sprintf("/src%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if now, err = m.Write(done, fd, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		src = append(src, fd)
	}
	if now, err = m.SyncAll(now); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()

	h := sha256.New()
	rec := &requestHasher{Device: m.Dev, h: h, owners: map[int]int{}}
	m.Dev = rec
	loop := sim.NewEventLoop(now)
	q, err := m.NewQueue(loop)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon runs until both processes finish.
	finish := m.BeginEvents(loop, q, 2)
	for i := range 2 {
		owner := i + 1
		rng := sim.NewRNG(uint64(40 + owner))
		loop.Go(now, func(p *sim.Proc) {
			defer finish()
			at := p.Now()
			// align realigns the process with its clock before each op,
			// as the engines do.
			align := func() sim.Time {
				p.WaitUntil(at)
				return at
			}
			fd, done, err := m.Create(align(), fmt.Sprintf("/w%d", owner))
			if err != nil {
				t.Error(err)
				return
			}
			at = done
			for r := range 48 {
				if _, at, err = m.Read(align(), src[i], rng.Int63n(256)*4096, 4096); err != nil {
					t.Error(err)
					return
				}
				if at, err = m.Write(align(), fd, int64(r)*16<<10, 16<<10); err != nil {
					t.Error(err)
					return
				}
				if r%16 == 15 {
					if at, err = m.Fsync(align(), fd); err != nil {
						t.Error(err)
						return
					}
				}
			}
			at += 600 * sim.Millisecond
			if _, err = m.Fsync(align(), fd); err != nil {
				t.Error(err)
			}
		}).Owner = owner
	}
	loop.Run()
	m.EndEvents()
	st := m.Stats()
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v\n", st, m.PC.L1.Stats(), q.Stats(), m.Dev.Stats())

	if rec.owners[1] == 0 || rec.owners[2] == 0 || rec.owners[device.OwnerDaemon] == 0 || rec.owners[device.OwnerNone] != 0 {
		t.Errorf("requests per owner %v: want owners 1, 2 and the daemon, and none unattributed", rec.owners)
	}
	if st.ThrottleStalls == 0 || st.Fsyncs != 8 {
		t.Errorf("throttle stalls %d, fsyncs %d: want some stalls and 8 fsyncs", st.ThrottleStalls, st.Fsyncs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("attribution digest = %s, want %s", got, want)
	}
}
