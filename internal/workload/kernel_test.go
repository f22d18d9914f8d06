package workload

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
	"repro/internal/fs/ext3sim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// missMount is the host-cost benchmark's miss-read stack in small: a
// 4-channel NVMe device behind an ncq queue of depth 32, and a page
// cache a quarter of the file it serves.
func missMount(t testing.TB) *vfs.Mount {
	t.Helper()
	fsys, err := ext2sim.New(262144)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := device.DefaultNVMe()
	dcfg.Channels = 4
	cfg := vfs.DefaultConfig()
	cfg.Scheduler, cfg.QueueDepth = device.SchedNCQ, 32
	return vfs.New(fsys,
		device.NewNVMe(dcfg, sim.NewRNG(21)),
		cache.NewHierarchy(cache.New(1024, cache.NewLRU()), nil),
		cfg)
}

// writeMount is the host-cost benchmark's write-mix stack in small:
// ext3 in ordered mode on an SSD.
func writeMount(t testing.TB) *vfs.Mount {
	t.Helper()
	fsys, err := ext3sim.New(262144, ext3sim.Ordered)
	if err != nil {
		t.Fatal(err)
	}
	return vfs.New(fsys,
		device.NewSSD(device.DefaultSSD(), sim.NewRNG(21)),
		cache.NewHierarchy(cache.New(4096, cache.NewLRU()), nil),
		vfs.DefaultConfig())
}

// drainMount is the host-cost benchmark's drain-100k stack in small:
// the test disk behind an ncq queue of depth 32.
func drainMount(t testing.TB) *vfs.Mount {
	t.Helper()
	fsys, err := ext2sim.New(262144)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vfs.DefaultConfig()
	cfg.Scheduler, cfg.QueueDepth = device.SchedNCQ, 32
	return vfs.New(fsys,
		device.NewHDD(device.DefaultHDD(), sim.NewRNG(21)),
		cache.NewHierarchy(cache.New(2048, cache.NewLRU()), nil),
		cfg)
}

// writeMix is the benchmark's write-mix load in small: one FileServer
// thread over 100 files of exactly 128 KB.
func writeMix() *Workload {
	w := FileServer(100, 128<<10, 1)
	w.FileSets[0].ParetoAlpha = 0
	return w
}

// TestKernelCounters pins the loop tallies of one Run on small shapes
// of the host-cost benchmark's workloads. They are exact for a
// configuration and seed, so they move only when the way the engine
// drives the kernel does, never with host speed.
func TestKernelCounters(t *testing.T) {
	cases := []struct {
		name  string
		mount func(testing.TB) *vfs.Mount
		w     *Workload
		seed  uint64
		dur   sim.Time
		cold  bool
		ops   int64
		want  sim.Counters
	}{{
		// Every read misses and blocks on the device queue. Its
		// completion resumes the thread as from its own wake, so the
		// thread's realignment at its next op advances in place
		// whenever nothing else is due first.
		name:  "miss-read",
		mount: missMount,
		w:     RandomRead(16<<20, 4<<10, 16),
		seed:  7,
		dur:   50 * sim.Millisecond,
		cold:  true,
		ops:   3441,
		want:  sim.Counters{Events: 6985, Resumes: 6970, InPlace: 1998, Spawned: 16},
	}, {
		// Every read hits the cache: the one thread realigns in place
		// at every op but the first and is resumed only at its start.
		// The other event is the write-back daemon's one wake, where it
		// sees the run is over; the daemon is an event target, never a
		// process.
		name:  "cached-read",
		mount: func(t testing.TB) *vfs.Mount { return testMount(t, 4096) },
		w:     RandomRead(8<<20, 2<<10, 1),
		seed:  7,
		dur:   50 * sim.Millisecond,
		ops:   501,
		want:  sim.Counters{Events: 2, Resumes: 1, InPlace: 500, Spawned: 1},
	}, {
		// Creates, appends, whole-file reads, stats and deletes on
		// ext3: most events are device completions of journal and
		// write-back I/O, and few of them resume a process.
		name:  "write-mix",
		mount: writeMount,
		w:     writeMix(),
		seed:  7,
		dur:   200 * sim.Millisecond,
		ops:   295,
		want:  sim.Counters{Events: 2902, Resumes: 212, InPlace: 108, Spawned: 1},
	}, {
		// 256 readers each put one cold read in the queue at once and
		// none returns before the horizon: the run is the drain of
		// that backlog, one op per reader.
		name:  "drain",
		mount: drainMount,
		w:     MixedRegions(4, 64, 0, 4<<20, 2<<10),
		seed:  7,
		dur:   100 * sim.Millisecond,
		cold:  true,
		ops:   256,
		want:  sim.Counters{Events: 1329, Resumes: 1269, InPlace: 256, Spawned: 256},
	}, {
		// Two open classes over a warm file. Each class's generator is
		// an event target that resumes an idle worker per arrival. A
		// worker runs ahead of the loop on a cache hit and, out of
		// work, schedules its idle check at its own clock: an event,
		// never a resume, unless an arrival beat it there.
		name:  "two-classes-warm",
		mount: func(t testing.TB) *vfs.Mount { return testMount(t, 2048) },
		w:     twoClassWarm(),
		seed:  77,
		dur:   50 * sim.Millisecond,
		ops:   443,
		want:  sim.Counters{Events: 894, Resumes: 453, InPlace: 0, Spawned: 5},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.mount(t), tc.w, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			start, err := e.Setup(0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cold {
				e.DropCaches()
			}
			if _, err := e.Run(start, start+tc.dur); err != nil {
				t.Fatal(err)
			}
			if got := e.Counter().Ops; got != tc.ops {
				t.Errorf("ops = %d, want %d", got, tc.ops)
			}
			if e.kernel != tc.want {
				t.Errorf("kernel tallies %+v, want %+v", e.kernel, tc.want)
			}
		})
	}
}
