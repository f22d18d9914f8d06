package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// bits renders a float64 exactly, so fingerprints detect any drift.
func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func summaryFingerprint(s stats.Summary) string {
	return fmt.Sprintf("n=%d mean=%s sd=%s rsd=%s min=%s max=%s med=%s lo=%s hi=%s",
		s.N, bits(s.Mean), bits(s.StdDev), bits(s.RSD), bits(s.Min), bits(s.Max),
		bits(s.Median), bits(s.CI95Lo), bits(s.CI95Hi))
}

func histFingerprint(h *metrics.Histogram) string {
	if h == nil {
		return "nil"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	for i := 0; i < metrics.NumBuckets; i++ {
		if c := h.BucketCount(i); c != 0 {
			fmt.Fprintf(&b, " %d:%d", i, c)
		}
	}
	return b.String()
}

// resultFingerprint serializes every observable number in a Result so
// that two runs compare byte-for-byte.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	for i, m := range res.PerRun {
		fmt.Fprintf(&b, "run%d seed=%d ops=%d tp=%s cache=%d hit=%s errs=%d load=%d/%d/%d hist{%s}",
			i, m.Seed, m.Ops, bits(m.Throughput), m.CacheBytes, bits(m.HitRatio),
			m.Errors, m.Load.Offered, m.Load.Completed, m.Load.BacklogPeak,
			histFingerprint(m.Hist))
		if m.Series != nil {
			b.WriteString(" series")
			for _, r := range m.Series.Rates() {
				fmt.Fprintf(&b, " %s", bits(r))
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "summary{%s}\nhist{%s}\nflags{%s}\n",
		summaryFingerprint(res.Throughput), histFingerprint(res.Hist), res.Flags)
	return b.String()
}

// fingerprintDigest is the sha256 of resultFingerprint, short enough
// to pin as a constant so results are compared across commits, not
// only across repeats within one.
func fingerprintDigest(res *Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(resultFingerprint(res))))
}

func sweepFingerprint(res *SweepResult) string {
	var b strings.Builder
	for _, p := range res.Points {
		fmt.Fprintf(&b, "x=%s\n%s", bits(p.X), resultFingerprint(p.Result))
	}
	return b.String()
}

func determinismExperiment(parallelism int) *Experiment {
	return &Experiment{
		Name:           "det",
		Stack:          smallStack(),
		Workload:       workload.RandomRead(60<<20, 2048, 2),
		Runs:           8,
		Duration:       10 * sim.Second,
		MeasureWindow:  5 * sim.Second,
		SeriesInterval: 2 * sim.Second,
		Seed:           42,
		Parallelism:    parallelism,
	}
}

func TestExperimentParallelDeterminism(t *testing.T) {
	var want string
	for _, p := range []int{1, 4, 8} {
		exp := determinismExperiment(p)
		res, err := exp.Run()
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		got := resultFingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d result differs from parallelism 1:\n%s\nvs\n%s", p, got, want)
		}
	}
}

func TestSweepParallelDeterminism(t *testing.T) {
	mkSweep := func(parallelism int) *Sweep {
		s := FileSizeSweep(smallStack(),
			[]int64{16 << 20, 48 << 20, 96 << 20}, 3,
			10*sim.Second, 5*sim.Second, 7)
		s.Parallelism = parallelism
		return s
	}
	var want string
	for _, p := range []int{1, 4, 8} {
		res, err := mkSweep(p).Run()
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		got := sweepFingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d sweep differs from parallelism 1", p)
		}
	}
}

func TestSeedsDerivedUpFront(t *testing.T) {
	exp := determinismExperiment(4)
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.PerRun {
		if want := sim.DeriveSeed(exp.Seed, uint64(i)); m.Seed != want {
			t.Errorf("run %d seed = %d, want DeriveSeed(%d, %d) = %d",
				i, m.Seed, exp.Seed, i, want)
		}
	}
}

func TestExperimentProgressEvents(t *testing.T) {
	exp := determinismExperiment(4)
	var events []ProgressEvent
	exp.Progress = func(ev ProgressEvent) { events = append(events, ev) }
	if _, err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != exp.Runs {
		t.Fatalf("%d events, want %d", len(events), exp.Runs)
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != exp.Runs {
			t.Errorf("event %d = %d/%d, want %d/%d", i, ev.Done, ev.Total, i+1, exp.Runs)
		}
		if ev.Point != 0 {
			t.Errorf("event %d point = %d", i, ev.Point)
		}
	}
	if !events[len(events)-1].PointDone {
		t.Error("final event not PointDone")
	}
}

func TestSweepProgressEvents(t *testing.T) {
	s := FileSizeSweep(smallStack(),
		[]int64{16 << 20, 96 << 20}, 3, 10*sim.Second, 5*sim.Second, 7)
	s.Parallelism = 4
	var events []ProgressEvent
	var pointsDone int
	s.Progress = func(ev ProgressEvent) {
		events = append(events, ev)
		if ev.PointDone {
			pointsDone++
			if ev.X != float64(16<<20) && ev.X != float64(96<<20) {
				t.Errorf("PointDone at unexpected x=%g", ev.X)
			}
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if total := 2 * 3; len(events) != total {
		t.Fatalf("%d events, want %d", len(events), total)
	}
	if pointsDone != 2 {
		t.Errorf("%d PointDone events, want 2", pointsDone)
	}
	last := events[len(events)-1]
	if last.Done != last.Total || last.Total != 6 {
		t.Errorf("final event %d/%d", last.Done, last.Total)
	}
}

func TestRunExperimentsMatchesIndividualRuns(t *testing.T) {
	mk := func(fsName string) *Experiment {
		stack := smallStack()
		stack.FS = fsName
		return &Experiment{
			Name:     fsName,
			Stack:    stack,
			Workload: workload.RandomRead(32<<20, 2048, 1),
			Runs:     3, Duration: 10 * sim.Second, MeasureWindow: 5 * sim.Second,
			Seed: 11,
		}
	}
	pooled, err := Runner{Parallelism: 4}.RunExperiments(
		[]*Experiment{mk("ext2"), mk("xfs")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != 2 {
		t.Fatalf("%d results", len(pooled))
	}
	for i, fsName := range []string{"ext2", "xfs"} {
		if pooled[i].Experiment.Name != fsName {
			t.Errorf("result %d is %q, want %q", i, pooled[i].Experiment.Name, fsName)
		}
		solo, err := mk(fsName).Run()
		if err != nil {
			t.Fatal(err)
		}
		if resultFingerprint(pooled[i]) != resultFingerprint(solo) {
			t.Errorf("%s: pooled result differs from solo run", fsName)
		}
	}
}

func TestParallelRunError(t *testing.T) {
	exp := determinismExperiment(4)
	exp.Duration = 0
	if _, err := exp.Run(); err == nil {
		t.Error("zero-duration experiment ran under the pool")
	}
	s := &Sweep{Name: "no-mutate", Values: []float64{1}}
	if _, err := s.Run(); err == nil {
		t.Error("sweep without Mutate ran")
	}
}

// BenchmarkExperiment measures the wall-clock effect of the worker
// pool on a 10-run experiment (the paper's protocol size). Compare
// parallel=1 vs parallel=4 ns/op for the speedup acceptance check.
func BenchmarkExperiment(b *testing.B) {
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exp := &Experiment{
					Name:     "bench",
					Stack:    smallStack(),
					Workload: workload.RandomRead(32<<20, 2048, 1),
					Runs:     10, Duration: 5 * sim.Second, MeasureWindow: 2 * sim.Second,
					Seed:        3,
					Parallelism: p,
				}
				if _, err := exp.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
