package core

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// cachedRead is a steady, fully cached random read: a 64 MB file in
// the paper stack's ~410 MB cache, so throughput is flat from the
// first second.
func cachedRead(duration, window sim.Time) *Experiment {
	return &Experiment{
		Name:          "cached-read",
		Stack:         PaperStack(),
		Workload:      workload.RandomRead(64<<20, 2<<10, 1),
		Runs:          1,
		Duration:      duration,
		MeasureWindow: window,
		Seed:          5,
		Kinds:         []workload.OpKind{workload.OpReadRand},
	}
}

// TestThroughputWindowAlignment checks that a measurement window
// counts only its own ops. The series has 10 s buckets; a window
// whose start falls inside a bucket must not also count that bucket's
// earlier ops, or its throughput is overstated.
func TestThroughputWindowAlignment(t *testing.T) {
	ref, err := cachedRead(60*sim.Second, 30*sim.Second).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Throughput.Mean
	for _, w := range []struct{ duration, window sim.Time }{
		{30 * sim.Second, 15 * sim.Second},
		{25 * sim.Second, 10 * sim.Second},
		{2 * sim.Second, 1 * sim.Second},
	} {
		res, err := cachedRead(w.duration, w.window).Run()
		if err != nil {
			t.Fatal(err)
		}
		got := res.Throughput.Mean
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("%v run, %v window: %.0f ops/s, want %.0f ± 1%% (the aligned 60s/30s run)",
				w.duration, w.window, got, want)
		}
		if ops := res.PerRun[0].Ops; ops != res.PerRun[0].Hist.Count() {
			t.Errorf("%v window: Ops %d, want the window's histogram count %d",
				w.window, ops, res.PerRun[0].Hist.Count())
		}
	}
}

// TestSteadyRunIsStationary checks that a flat throughput curve is not
// flagged: the ops each thread finishes past the horizon must not
// show up as a last, nearly empty bucket.
func TestSteadyRunIsStationary(t *testing.T) {
	res, err := cachedRead(100*sim.Second, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := res.PerRun[0].Series.Buckets(); n != 10 {
		t.Errorf("100 s run kept %d series buckets, want 10", n)
	}
	if res.Flags.NonStationary {
		t.Errorf("steady cached read flagged non-stationary; curve %v", res.PerRun[0].Series.Rates())
	}
}

// TestWarmupIsNonStationary checks the flag still fires on Figure 2's
// transition: a cold read of a file the size of the cache, whose
// throughput keeps climbing as the cache warms.
func TestWarmupIsNonStationary(t *testing.T) {
	res, err := (&Experiment{
		Name:      "warmup",
		Stack:     PaperStack(),
		Workload:  workload.RandomRead(410<<20, 2<<10, 1),
		Runs:      1,
		Duration:  100 * sim.Second,
		ColdCache: true,
		Seed:      5,
		Kinds:     []workload.OpKind{workload.OpReadRand},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flags.NonStationary {
		t.Errorf("cold 410 MB read not flagged non-stationary; curve %v", res.PerRun[0].Series.Rates())
	}
}
