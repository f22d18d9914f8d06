package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// shardedDetExperiment is the determinism matrix's sharded point: a
// two-class workload (so both closed threads and an open generator
// partition) at the given shard count and worker-pool width.
func shardedDetExperiment(shards, parallelism int) *Experiment {
	return &Experiment{
		Name:           "det-sharded",
		Stack:          func() StackConfig { s := smallStack(); s.Shards = shards; return s }(),
		Workload:       workload.FileServer(40, 16<<10, 6),
		Runs:           4,
		Duration:       4 * sim.Second,
		MeasureWindow:  2 * sim.Second,
		SeriesInterval: sim.Second,
		Seed:           42,
		Parallelism:    parallelism,
	}
}

// shardedDetDigests pins fingerprintDigest of shardedDetExperiment(n, 1)
// per shard count. A kernel change that keeps repeats identical but
// moves any number still fails here. The one-shard point is the only
// pin whose workload exercises the engine's one-shard RNG layout
// (Zipf filesets, creates and an open class); the figure goldens all
// run random reads.
var shardedDetDigests = map[int]string{
	1: "e661e6861e106c5dd72e13b7a45ea08bb5fc43f6013f47a00b356eb979b4512a",
	2: "b136e18341c4867eca5228d6d103fc551b6b1e068cf61d0bfce33249cf7e41ee",
	4: "025f718200b803a1dd3fdde28e65f6d2220c8eaf6bab1fc3c7eef15d03746900",
}

// TestExperimentShardedDeterminism is the sharded half of the
// determinism matrix: at every shard count, repeated runs are
// bit-identical, and the experiment-level Parallelism (how many runs
// execute concurrently) never moves a number. The reference run must
// also match its pinned digest. At one shard only the digest is checked:
// TestExperimentParallelDeterminism already covers Parallelism there.
func TestExperimentShardedDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		ref, err := shardedDetExperiment(shards, 1).Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := fingerprintDigest(ref); got != shardedDetDigests[shards] {
			t.Errorf("shards=%d digest %s, pinned %s", shards, got, shardedDetDigests[shards])
		}
		if shards == 1 {
			continue
		}
		want := resultFingerprint(ref)
		for _, par := range []int{1, 4} {
			res, err := shardedDetExperiment(shards, par).Run()
			if err != nil {
				t.Fatalf("shards=%d par=%d: %v", shards, par, err)
			}
			if got := resultFingerprint(res); got != want {
				t.Errorf("shards=%d par=%d diverged from par=1 reference:\n%s\nvs\n%s",
					shards, par, got, want)
			}
		}
	}
}

// TestExperimentShardsZeroEqualsOne pins the compatibility edge:
// Shards unset (0) and Shards=1 both build one stack and run the
// engine at one shard with the same RNG consumption order, so their
// results are bit-identical, checked at the Result level.
func TestExperimentShardsZeroEqualsOne(t *testing.T) {
	zero, err := determinismExperiment(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	one := determinismExperiment(1)
	one.Stack.Shards = 1
	res, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultFingerprint(zero), resultFingerprint(res); a != b {
		t.Errorf("Shards=1 diverged from Shards=0:\n%s\nvs\n%s", b, a)
	}
}
