package workload

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// sharedDeviceMounts builds n stacks that all drain into ONE device —
// the configuration the engine runs as its shared-device star.
func sharedDeviceMounts(t testing.TB, n, cachePages int) []*vfs.Mount {
	t.Helper()
	dev := device.NewHDD(device.DefaultHDD(), sim.NewRNG(21))
	out := make([]*vfs.Mount, n)
	for i := range out {
		fsys, err := ext2sim.New(262144) // 1 GB
		if err != nil {
			t.Fatal(err)
		}
		out[i] = vfs.New(fsys, dev,
			cache.NewHierarchy(cache.New(cachePages, cache.NewLRU()), nil),
			vfs.DefaultConfig())
	}
	return out
}

// sharedRunFingerprint runs w across n thread shards plus the device
// shard and serializes every observable number.
func sharedRunFingerprint(t *testing.T, w *Workload, n int, seed uint64) string {
	t.Helper()
	return runFingerprint(t, sharedDeviceMounts(t, n, 2048), w, seed)
}

// TestSharedDeviceEngineDeterministic is the determinism matrix:
// the fingerprint must be bit-identical across repeats and across
// GOMAXPROCS settings — real parallelism may change wall-clock only.
func TestSharedDeviceEngineDeterministic(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, w := range []*Workload{
			FileServer(60, 16<<10, 8),
			RandomRead(16<<20, 2048, 8),
			OpenLoopRead(8<<20, 2048, 4, 2000),
		} {
			first := sharedRunFingerprint(t, w, n, 7)
			if got := sharedRunFingerprint(t, w, n, 7); got != first {
				t.Errorf("%s shards=%d: repeat diverged:\n%s\nvs\n%s", w.Name, n, got, first)
			}
			prev := runtime.GOMAXPROCS(1)
			got := sharedRunFingerprint(t, w, n, 7)
			runtime.GOMAXPROCS(prev)
			if got != first {
				t.Errorf("%s shards=%d: GOMAXPROCS=1 diverged:\n%s\nvs\n%s", w.Name, n, got, first)
			}
		}
	}
}

// TestEngineTopologyFromMounts pins where the topology comes from:
// the mounts. One mount runs alone; mounts on private devices run as
// replica shards; two or more mounts on one device get the device
// shard.
func TestEngineTopologyFromMounts(t *testing.T) {
	w := RandomRead(1<<20, 2048, 4)
	for _, tc := range []struct {
		name   string
		mounts []*vfs.Mount
		star   bool
	}{
		{"one mount", testMounts(t, 1, 2048), false},
		{"one mount of a shared-device build", sharedDeviceMounts(t, 1, 2048), false},
		{"private devices", testMounts(t, 3, 2048), false},
		{"one device", sharedDeviceMounts(t, 3, 2048), true},
	} {
		e, err := NewShardedEngine(tc.mounts, w, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(e.shards) != len(tc.mounts) {
			t.Errorf("%s: %d shards for %d mounts", tc.name, len(e.shards), len(tc.mounts))
		}
		if star := e.dev != nil; star != tc.star {
			t.Errorf("%s: device shard %v, want %v", tc.name, star, tc.star)
		}
	}
}

// TestSharedDeviceEngineRejectsMixedDevices: mounts that neither all
// have private devices nor all share one fit neither topology, and the
// error names them.
func TestSharedDeviceEngineRejectsMixedDevices(t *testing.T) {
	mounts := append(sharedDeviceMounts(t, 2, 2048), testMount(t, 2048))
	_, err := NewShardedEngine(mounts, RandomRead(1<<20, 2048, 3), 1)
	if err == nil {
		t.Fatal("engine accepted two mounts on one device beside one on its own")
	}
	if msg := err.Error(); !strings.Contains(msg, "mounts 0 and 1") || !strings.Contains(msg, "mount 2") {
		t.Errorf("error %q does not name mounts 0, 1 and 2", msg)
	}
}

// TestSharedDeviceEngineContention: the whole point of the topology —
// N shards' I/O funnels through one queue, so the aggregate queue
// stats must show cross-shard queueing (waits the replica engine
// could never produce with a private device per shard).
func TestSharedDeviceEngineContention(t *testing.T) {
	w := RandomRead(16<<20, 64, 8) // tiny cache share forces misses
	se, err := NewShardedEngine(sharedDeviceMounts(t, 4, 64), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	start, err := se.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Run(start, start+2*sim.Second); err != nil {
		t.Fatal(err)
	}
	qs := se.QueueStats()
	if qs.Completed == 0 {
		t.Fatal("no I/O reached the shared device")
	}
	if qs.Wait == 0 {
		t.Error("8 threads on one spindle produced zero queueing delay")
	}
	owners := qs.Owners()
	if len(owners) < 8 {
		t.Errorf("shared queue saw %d owners, want all 8 threads", len(owners))
	}
	if se.Counter().Ops == 0 {
		t.Error("run completed no ops")
	}
}
