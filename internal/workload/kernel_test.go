package workload

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
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

// TestKernelCounters pins the loop tallies of one Run on small shapes
// of the host-cost benchmark's workloads. They are exact for a
// configuration and seed, so they move only when the way the engine
// drives the kernel does, never with host speed.
func TestKernelCounters(t *testing.T) {
	cases := []struct {
		name  string
		mount func(testing.TB) *vfs.Mount
		w     *Workload
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
		dur:   50 * sim.Millisecond,
		cold:  true,
		ops:   3441,
		want:  sim.Counters{Events: 6986, Resumes: 6972, InPlace: 1998, Spawned: 17},
	}, {
		// Every read hits the cache: the one thread realigns in place
		// at every op but the first and is resumed only at its start.
		// The write-back daemon is resumed twice: at its start and at
		// the wake where it sees the run is over.
		name:  "cached-read",
		mount: func(t testing.TB) *vfs.Mount { return testMount(t, 4096) },
		w:     RandomRead(8<<20, 2<<10, 1),
		dur:   50 * sim.Millisecond,
		ops:   501,
		want:  sim.Counters{Events: 3, Resumes: 3, InPlace: 500, Spawned: 2},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.mount(t), tc.w, 7)
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
