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
// moves any number still fails here.
var shardedDetDigests = map[int]string{
	2: "a56f65ef51c068b3eab25f1a33c7a29c99efa7108beb1f9e98c07c4b512c4169",
	4: "50aacde0b9873ab907ca9a64b6a2f223bd6f5e63c369fd785499ca37173ab58e",
}

// TestExperimentShardedDeterminism is the sharded half of the
// determinism matrix: at every shard count, repeated runs are
// bit-identical, and the experiment-level Parallelism (how many runs
// execute concurrently) never moves a number — the same contract the
// single-loop kernel holds. The reference run must also match its
// pinned digest.
func TestExperimentShardedDeterminism(t *testing.T) {
	for _, shards := range []int{2, 4} {
		ref, err := shardedDetExperiment(shards, 1).Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := fingerprintDigest(ref); got != shardedDetDigests[shards] {
			t.Errorf("shards=%d digest %s, pinned %s", shards, got, shardedDetDigests[shards])
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
// Shards unset (0) and Shards=1 both take the single-loop path with
// an unchanged RNG consumption order, so their results are
// bit-identical — the "default 1 shard means byte-for-byte the old
// kernel" guarantee, checked at the Result level.
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
