package core

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fileServerExperiment is the multi-thread determinism workload: the
// mixed-op FileServer personality (create/write/read/stat/delete), 4
// threads, on the small stack. Kept deliberately short — the matrix
// below runs it 18 times.
func fileServerExperiment(parallelism, queueDepth int, sched string) *Experiment {
	stack := smallStack()
	stack.QueueDepth = queueDepth
	stack.Scheduler = sched
	return &Experiment{
		Name:           fmt.Sprintf("fileserver-qd%d-%s", queueDepth, sched),
		Stack:          stack,
		Workload:       workload.FileServer(100, 32<<10, 4),
		Runs:           2,
		Duration:       3 * sim.Second,
		MeasureWindow:  2 * sim.Second,
		SeriesInterval: sim.Second,
		Seed:           99,
		Parallelism:    parallelism,
	}
}

// TestContentionDeterminism is the event-kernel determinism matrix: a
// multi-thread FileServer run must be bit-identical across host
// Parallelism 1/4/8 at every queue depth 1/8/32, per (config, seed).
func TestContentionDeterminism(t *testing.T) {
	for _, qd := range []int{1, 8, 32} {
		want := ""
		for _, p := range []int{1, 4, 8} {
			res, err := fileServerExperiment(p, qd, "ncq").Run()
			if err != nil {
				t.Fatalf("qd=%d parallelism=%d: %v", qd, p, err)
			}
			got := resultFingerprint(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("qd=%d: parallelism %d result differs from parallelism 1", qd, p)
			}
		}
	}
}

// TestSchedulersUnderRace runs every scheduler through a full
// multi-thread experiment; under `go test -race` this doubles as the
// proof that the one-baton kernel discipline is data-race free.
func TestSchedulersUnderRace(t *testing.T) {
	for _, sched := range []string{"fcfs", "elevator", "ncq"} {
		res, err := fileServerExperiment(4, 16, sched).Run()
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if res.Throughput.Mean <= 0 {
			t.Errorf("%s: no throughput", sched)
		}
		// Same scheduler, same seed: still deterministic.
		res2, err := fileServerExperiment(4, 16, sched).Run()
		if err != nil {
			t.Fatal(err)
		}
		if resultFingerprint(res) != resultFingerprint(res2) {
			t.Errorf("%s: repeated run differs", sched)
		}
	}
}

// TestQueueDepthChangesContention is the acceptance experiment: a
// 16-thread disk-bound workload at QueueDepth 1 vs 32 must produce
// measurably different throughput and latency histograms — the deeper
// window lets NCQ reordering shorten seeks.
func TestQueueDepthChangesContention(t *testing.T) {
	run := func(depth int) *Result {
		stack := smallStack()
		stack.QueueDepth = depth
		stack.Scheduler = "ncq"
		stack.OSReserveJitter = 0
		exp := &Experiment{
			Name:  fmt.Sprintf("contention-qd%d", depth),
			Stack: stack,
			// Disk-bound with real seek spread: a 1 GB file on the 4 GB
			// disk. Reordering must have distance to win back — a small
			// file's seeks are so short that rotational delay (which no
			// scheduler can shorten) hides the ordering.
			Workload:      workload.RandomRead(1<<30, 2<<10, 16),
			Runs:          2,
			Duration:      20 * sim.Second,
			MeasureWindow: 10 * sim.Second,
			ColdCache:     true,
			Seed:          5,
			Kinds:         []workload.OpKind{workload.OpReadRand},
		}
		res, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shallow := run(1)
	deep := run(32)
	if deep.Throughput.Mean <= shallow.Throughput.Mean*1.05 {
		t.Errorf("queue depth had no throughput effect: qd32 %.1f ops/s vs qd1 %.1f ops/s",
			deep.Throughput.Mean, shallow.Throughput.Mean)
	}
	if histFingerprint(deep.Hist) == histFingerprint(shallow.Hist) {
		t.Error("latency histograms identical across queue depths")
	}
	// Reordering trades tail latency for throughput: the deep queue's
	// p99 must not be better than its median by less than the shallow
	// queue's ratio (i.e. the tail stretches relative to the middle).
	shallowSpread := float64(shallow.Hist.Quantile(metrics.P99)) / float64(shallow.Hist.Quantile(metrics.P50))
	deepSpread := float64(deep.Hist.Quantile(metrics.P99)) / float64(deep.Hist.Quantile(metrics.P50))
	if deepSpread <= shallowSpread {
		t.Logf("note: qd32 p99/p50 spread %.1f not above qd1 %.1f (acceptable but unexpected)",
			deepSpread, shallowSpread)
	}
}

// TestThreadCountSweepSaturates checks the new sweep constructor: a
// disk-bound thread sweep must saturate (64 threads ≪ 64x the
// 1-thread throughput) instead of scaling linearly by construction.
func TestThreadCountSweepSaturates(t *testing.T) {
	stack := smallStack()
	stack.OSReserveJitter = 0
	stack.Scheduler = "elevator"
	mk := func(threads int) *workload.Workload {
		return workload.RandomRead(256<<20, 2<<10, threads)
	}
	sweep := ThreadCountSweep(stack, mk, []int{1, 64}, 1,
		10*sim.Second, 5*sim.Second, 21)
	sweep.Base.ColdCache = true
	sweep.Parallelism = 2
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	one := res.Points[0].Result.Throughput.Mean
	many := res.Points[1].Result.Throughput.Mean
	if many > one*16 {
		t.Errorf("64 threads did %.1f ops/s vs %.1f for 1: device should saturate", many, one)
	}
	if many < one/2 {
		t.Errorf("64 threads collapsed to %.1f ops/s vs %.1f for 1", many, one)
	}
}

// TestThreadCountSweepDefaultPersonality covers the nil-mk default.
func TestThreadCountSweepDefaultPersonality(t *testing.T) {
	sweep := ThreadCountSweep(smallStack(), nil, []int{2}, 1,
		5*sim.Second, 2*sim.Second, 3)
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Result.Experiment.Workload.Name; got != "fileserver" {
		t.Errorf("default personality = %q, want fileserver", got)
	}
}
