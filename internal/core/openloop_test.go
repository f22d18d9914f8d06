package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// openLoopExperiment is the open-loop leg of the determinism matrix:
// Poisson arrivals to a 4-worker pool on the small stack, memory-bound
// so the run stays short on 1-CPU CI.
func openLoopExperiment(parallelism int) *Experiment {
	stack := smallStack()
	return &Experiment{
		Name:           "openloop-det",
		Stack:          stack,
		Workload:       workload.OpenLoopRead(16<<20, 2048, 4, 3000),
		Runs:           2,
		Duration:       2 * sim.Second,
		MeasureWindow:  sim.Second,
		SeriesInterval: sim.Second,
		Seed:           77,
		Parallelism:    parallelism,
	}
}

// TestOpenLoopParallelDeterminism extends the determinism matrix to
// the open-loop engine: generator, worker pool, idle-list wake-ups,
// and the load gauge must be bit-identical across host Parallelism
// 1 and 4 (the matrix is kept small for 1-CPU CI).
func TestOpenLoopParallelDeterminism(t *testing.T) {
	want := ""
	for _, p := range []int{1, 4} {
		res, err := openLoopExperiment(p).Run()
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if res.Load.Offered == 0 {
			t.Fatal("open-loop run offered nothing")
		}
		got := resultFingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d open-loop result differs from parallelism 1", p)
		}
	}
}

// TestArrivalRateSweep covers the offered-load sweep constructor: a
// below-capacity point absorbs its offered load, an above-capacity
// point pins near capacity with a growing backlog and a far worse
// arrival-to-completion tail.
func TestArrivalRateSweep(t *testing.T) {
	stack := smallStack()
	stack.OSReserveJitter = 0
	mk := func(rate float64) *workload.Workload {
		return workload.OpenLoopRead(8<<20, 2048, 2, rate)
	}
	sweep := ArrivalRateSweep(stack, mk, []float64{2000, 40000}, 1,
		2*sim.Second, sim.Second, 9)
	sweep.Parallelism = 2
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	low, high := res.Points[0].Result, res.Points[1].Result
	if ratio := low.Load.CompletionRatio(); ratio < 0.95 {
		t.Errorf("below capacity: completion ratio %.2f, want ~1", ratio)
	}
	if high.Load.CompletionRatio() > 0.9 {
		t.Errorf("above capacity: completion ratio %.2f, want well below 1 (offered %d, completed %d)",
			high.Load.CompletionRatio(), high.Load.Offered, high.Load.Completed)
	}
	if high.Load.BacklogPeak <= low.Load.BacklogPeak {
		t.Errorf("backlog peak %d at high rate not above %d at low rate",
			high.Load.BacklogPeak, low.Load.BacklogPeak)
	}
	if hp, lp := high.Hist.Quantile(metrics.P99), low.Hist.Quantile(metrics.P99); hp < 10*lp {
		t.Errorf("above-capacity p99 %v not ≫ below-capacity p99 %v", sim.Time(hp), sim.Time(lp))
	}
}

// TestArrivalRateSweepDefaultPersonality covers the nil-mk default.
func TestArrivalRateSweepDefaultPersonality(t *testing.T) {
	stack := smallStack()
	sweep := ArrivalRateSweep(stack, nil, []float64{50}, 1,
		2*sim.Second, sim.Second, 13)
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Result.Experiment.Workload.Name; got != "openloop" {
		t.Errorf("default personality = %q, want openloop", got)
	}
	if res.Points[0].Result.Load.Offered == 0 {
		t.Error("default open-loop sweep offered nothing")
	}
}
