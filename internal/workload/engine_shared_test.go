package workload

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// sharedDeviceMounts builds n stacks that all drain into ONE device —
// the configuration NewShardedEngine rejects and NewSharedDeviceEngine
// exists for.
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
	se, err := NewSharedDeviceEngine(sharedDeviceMounts(t, n, 2048), w, seed)
	if err != nil {
		t.Fatal(err)
	}
	start, err := se.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	hist := &metrics.Histogram{}
	series := metrics.NewTimeSeriesOffset(sim.Second, start)
	po := &metrics.PerOwner{}
	se.SetProbe(&Probe{Hist: hist, Series: series, PerOwner: po})
	end, err := se.Run(start, start+4*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := se.Counter()
	g := se.Load()
	qs := se.QueueStats()
	fp := fmt.Sprintf("end=%d ops=%d errs=%d bytes=%d load=%d/%d/%d q=%d/%d/%d wait=%d histc=%d histmin=%d histmax=%d",
		end, c.Ops, c.Errors, c.Bytes, g.Offered, g.Completed, g.BacklogPeak,
		qs.Submitted, qs.Completed, qs.MaxQueued, qs.Wait,
		hist.Count(), hist.Min(), hist.Max())
	for i := 0; i < series.Buckets(); i++ {
		fp += fmt.Sprintf(" s%d=%d", i, series.Count(i))
	}
	for i, n := range po.Ops() {
		fp += fmt.Sprintf(" o%d=%d", i, n)
	}
	return fp
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

// TestSharedDeviceEngineAcceptsWhatShardedRejects pins the two
// constructors' domains: one device behind every mount is exactly the
// case replica sharding must reject and shared-device sharding must
// accept.
func TestSharedDeviceEngineAcceptsWhatShardedRejects(t *testing.T) {
	w := RandomRead(1<<20, 2048, 4)
	mounts := sharedDeviceMounts(t, 2, 2048)
	if _, err := NewShardedEngine(mounts, w, 1); err == nil {
		t.Error("NewShardedEngine accepted mounts sharing one device")
	}
	if _, err := NewSharedDeviceEngine(mounts, w, 1); err != nil {
		t.Errorf("NewSharedDeviceEngine rejected shared-device mounts: %v", err)
	}
}

func TestSharedDeviceEngineRejectsMixedDevices(t *testing.T) {
	// Mounts with private devices are a replica config; routing them
	// through one device shard would silently serialize nothing.
	if _, err := NewSharedDeviceEngine(testMounts(t, 2, 2048), RandomRead(1<<20, 2048, 2), 1); err == nil {
		t.Error("NewSharedDeviceEngine accepted mounts with distinct devices")
	}
}

// TestSharedDeviceEngineContention: the whole point of the topology —
// N shards' I/O funnels through one queue, so the aggregate queue
// stats must show cross-shard queueing (waits the replica engine
// could never produce with a private device per shard).
func TestSharedDeviceEngineContention(t *testing.T) {
	w := RandomRead(16<<20, 64, 8) // tiny cache share forces misses
	se, err := NewSharedDeviceEngine(sharedDeviceMounts(t, 4, 64), w, 3)
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
