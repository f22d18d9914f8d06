package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// sharedDetExperiment is the shared-device point of the determinism
// matrix: a contention workload (several threads, one device) at the
// given shard count and worker-pool width.
func sharedDetExperiment(shards, parallelism int) *Experiment {
	stack := smallStack()
	stack.Shards = shards
	stack.ShardMode = ShardModeSharedDevice
	return &Experiment{
		Name:           "det-shared",
		Stack:          stack,
		Workload:       workload.RandomRead(120<<20, 2048, 8),
		Runs:           4,
		Duration:       4 * sim.Second,
		MeasureWindow:  2 * sim.Second,
		SeriesInterval: sim.Second,
		Seed:           42,
		Parallelism:    parallelism,
	}
}

// TestExperimentSharedDeviceDeterminism is the shared-device leg of
// the determinism matrix: bit-identical results across repeats,
// run-level Parallelism 1/4, and GOMAXPROCS 1/2 — scheduling freedom
// at every layer, none of it allowed to move a number.
func TestExperimentSharedDeviceDeterminism(t *testing.T) {
	ref, err := sharedDetExperiment(2, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(ref)
	for _, par := range []int{1, 4} {
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			res, err := sharedDetExperiment(2, par).Run()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("par=%d procs=%d: %v", par, procs, err)
			}
			if got := resultFingerprint(res); got != want {
				t.Errorf("par=%d procs=%d diverged from reference:\n%s\nvs\n%s",
					par, procs, got, want)
			}
		}
	}
}

// sharedFourShardDigest pins fingerprintDigest of the shards=4
// shared-device point, so the star schedule is held fixed across
// commits and not only across repeats.
const sharedFourShardDigest = "0faa2224123832c9b7579a71619988cec393aeccdef258b24124bad1fef6bbca"

// TestExperimentSharedDeviceRepeatAtFourShards covers the wider
// partition once (the 2-shard matrix above carries the scheduling
// axes): repeats at shards=4 stay bit-identical and match the pinned
// digest.
func TestExperimentSharedDeviceRepeatAtFourShards(t *testing.T) {
	a, err := sharedDetExperiment(4, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintDigest(a); got != sharedFourShardDigest {
		t.Errorf("shards=4 digest %s, pinned %s", got, sharedFourShardDigest)
	}
	b, err := sharedDetExperiment(4, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if x, y := resultFingerprint(a), resultFingerprint(b); x != y {
		t.Errorf("shards=4 repeat diverged:\n%s\nvs\n%s", y, x)
	}
}

// TestExperimentSharedDeviceMeasuresContention: the mode's reason to
// exist — at any shard count the workload still contends on ONE
// device, so adding shards must not multiply throughput the way
// replica sharding does (where N shards mean N private devices).
func TestExperimentSharedDeviceMeasuresContention(t *testing.T) {
	one := sharedDetExperiment(1, 2) // shards=1: mode ignored, single loop
	oneRes, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	four, err := sharedDetExperiment(4, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Lower is expected (the cache splits 4 ways, submit hops add a
	// lookahead); meaningfully HIGHER would mean the run quietly got
	// replica semantics — 4 private spindles.
	if four.Throughput.Mean > oneRes.Throughput.Mean*1.5 {
		t.Errorf("shared-device shards=4 throughput %.1f vs shards=1 %.1f: one spindle cannot scale up",
			four.Throughput.Mean, oneRes.Throughput.Mean)
	}
}

// TestExperimentUnknownShardModeRejected: a typo'd mode must fail
// loudly, not silently fall back to replica semantics.
func TestExperimentUnknownShardModeRejected(t *testing.T) {
	exp := sharedDetExperiment(2, 1)
	exp.Stack.ShardMode = "shared-disc"
	if _, err := exp.Run(); err == nil || !strings.Contains(err.Error(), "shard mode") {
		t.Errorf("unknown shard mode error = %v", err)
	}
}

// TestStackConfigStringDisclosesMode pins the String surface: replica
// configs (mode empty) keep their exact committed format — warehouse
// fingerprints hash this string — and shared-device configs disclose
// the mode next to the shard count.
func TestStackConfigStringDisclosesMode(t *testing.T) {
	stack := smallStack()
	base := stack.String()
	if strings.Contains(base, "mode=") || strings.Contains(base, "shards=") {
		t.Fatalf("unsharded String grew shard tokens: %q", base)
	}
	stack.Shards = 4
	if got := stack.String(); got != base+" shards=4" {
		t.Errorf("replica String = %q, want %q", got, base+" shards=4")
	}
	stack.ShardMode = ShardModeSharedDevice
	if got := stack.String(); got != base+" shards=4 mode=shared-device" {
		t.Errorf("shared String = %q, want %q", got, base+" shards=4 mode=shared-device")
	}
	// At one shard the count token is suppressed, and the mode with it.
	stack.Shards = 1
	if got := stack.String(); got != base {
		t.Errorf("shards=1 String = %q, want %q", got, base)
	}
}

// TestBuildSharedDeviceSplitsResources: one device instance behind
// every mount, the cache divided N ways, every shard its own FS.
func TestBuildSharedDeviceSplitsResources(t *testing.T) {
	stack := smallStack()
	stack.OSReserveJitter = 0
	single, err := stack.Build(sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	mounts, err := stack.BuildSharedDevice(sim.NewRNG(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mounts) != 4 {
		t.Fatalf("got %d mounts, want 4", len(mounts))
	}
	for i, m := range mounts {
		if m.Dev != mounts[0].Dev {
			t.Errorf("mount %d has its own device", i)
		}
		if got, want := m.PC.L1.Capacity(), single.PC.L1.Capacity()/4; got != want {
			t.Errorf("mount %d cache capacity %d, want 1/4 share %d", i, got, want)
		}
		for j := 0; j < i; j++ {
			if mounts[j].FS == m.FS {
				t.Errorf("mounts %d and %d share a file system instance", j, i)
			}
		}
	}
	if _, err := stack.BuildSharedDevice(sim.NewRNG(1), 0); err == nil {
		t.Error("zero shards accepted")
	}
	bad := stack
	bad.Scheduler = "deadline"
	if _, err := bad.BuildSharedDevice(sim.NewRNG(1), 2); err == nil {
		t.Error("unknown scheduler accepted")
	}
}
