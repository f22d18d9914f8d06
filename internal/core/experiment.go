package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Experiment is one measured configuration: a workload on a stack,
// run Runs times with distinct seeds.
type Experiment struct {
	Name     string
	Stack    StackConfig
	Workload *workload.Workload
	// Trace, when non-nil, replaces Workload as the run's operation
	// source: each run replays the configured trace(s) through the
	// event kernel under the experiment's protocol. Exactly one of
	// Workload and Trace must be set.
	Trace *TraceReplay
	// Runs is the number of independent runs (the paper uses 10).
	Runs int
	// Duration is each run's measured length in virtual time.
	Duration sim.Time
	// MeasureWindow is the tail portion whose throughput is reported
	// (the paper reports "only the last minute" of 20-minute runs).
	// 0 means the whole run.
	MeasureWindow sim.Time
	// ColdCache drops caches after setup so each run starts cold.
	ColdCache bool
	// Seed is the base seed; run i's seed is sim.DeriveSeed(Seed, i),
	// derived up front so results do not depend on execution order.
	Seed uint64
	// Parallelism bounds how many runs execute concurrently; <= 0
	// means GOMAXPROCS. Results are bit-identical at any setting.
	Parallelism int
	// Progress, when non-nil, receives a serialized event per
	// completed run.
	Progress ProgressFunc
	// SeriesInterval enables a throughput time series with the given
	// bucket (0 = 10s, the paper's Figure 2 interval).
	SeriesInterval sim.Time
	// TimelineInterval enables per-interval latency histograms
	// (Figure 4); 0 disables.
	TimelineInterval sim.Time
	// Kinds restricts measurement to these op kinds (nil = all).
	Kinds []workload.OpKind
	// Recorder, when non-nil, receives the aggregated Result as soon
	// as the experiment's last run completes — the hook a results
	// warehouse attaches to. Sweeps propagate the template's Recorder
	// to every point. A recording error aborts the job: an archive
	// that silently drops runs is worse than no archive.
	Recorder Recorder
}

// Recorder consumes completed Results. Implementations must be safe
// for concurrent use: a Runner executing pooled experiments invokes
// the hook from worker goroutines as each experiment finishes.
type Recorder interface {
	RecordResult(*Result) error
}

// RunMeasure is one run's outcome.
type RunMeasure struct {
	Seed uint64
	// Ops counts the measured kinds' ops completing at or after the
	// measurement window's start. Each thread's last op may finish
	// past the horizon and is counted too.
	Ops        int64
	Throughput float64 // Ops per second of the measurement window
	CacheBytes int64   // the cache size this run actually drew
	HitRatio   float64
	Hist       *metrics.Histogram
	Series     *metrics.TimeSeries
	Timeline   *metrics.HistogramTimeline
	// PerOwner holds per-thread op counts and latency histograms
	// (owner = thread index), recorded inside the measurement window —
	// the fairness view the aggregate Hist erases.
	PerOwner *metrics.PerOwner
	// Load is the open-loop offered-vs-completed gauge (zero-valued
	// for purely closed-loop workloads).
	Load   metrics.LoadGauge
	Errors int64
}

// Flags are the harness's refusals: conditions under which a single
// number misrepresents the data.
type Flags struct {
	// Bimodal: the latency distribution has 2+ modes (Figure 3b) —
	// report the histogram, not the mean.
	Bimodal bool
	// NonStationary: throughput never settled (Figure 2's transition)
	// — report the curve, not a steady-state number.
	NonStationary bool
	// HighVariance: relative standard deviation across runs exceeds
	// 10% — single-run results would be meaningless.
	HighVariance bool
}

// Any reports whether any flag is raised.
func (f Flags) Any() bool { return f.Bimodal || f.NonStationary || f.HighVariance }

// String lists raised flags.
func (f Flags) String() string {
	s := ""
	if f.Bimodal {
		s += " bimodal"
	}
	if f.NonStationary {
		s += " non-stationary"
	}
	if f.HighVariance {
		s += " high-variance"
	}
	if s == "" {
		return "ok"
	}
	return s[1:]
}

// Result aggregates an experiment's runs.
type Result struct {
	Experiment *Experiment
	PerRun     []RunMeasure
	// Throughput summarizes ops/sec across runs with CIs.
	Throughput stats.Summary
	// Hist is the merged latency histogram across runs.
	Hist *metrics.Histogram
	// PerOwner merges the per-thread accounting across runs (owner =
	// thread index).
	PerOwner *metrics.PerOwner
	// Jain is the Jain fairness index of the merged per-thread op
	// counts: 1.0 when every thread got an equal share of service,
	// approaching 1/n under starvation. Meaningful when the workload's
	// threads do comparable work (uniform personalities); for mixed
	// thread classes compute per-class indices from PerOwner instead.
	Jain float64
	// Load merges the per-run open-loop gauges: offered and completed
	// counts add, the backlog peak is the worst run's.
	Load metrics.LoadGauge
	// Flags carries the harness's refusals.
	Flags Flags
}

// Throughputs returns the per-run throughput sample (for significance
// tests).
func (r *Result) Throughputs() []float64 {
	out := make([]float64, len(r.PerRun))
	for i, m := range r.PerRun {
		out[i] = m.Throughput
	}
	return out
}

// Run executes the experiment, fanning its runs across a worker pool
// sized by Parallelism.
func (e *Experiment) Run() (*Result, error) {
	return Runner{Parallelism: e.Parallelism, Progress: e.Progress}.RunExperiment(e)
}

// prepare validates the experiment and defaults Runs.
func (e *Experiment) prepare() error {
	if e.Runs <= 0 {
		e.Runs = 1
	}
	if m := e.Stack.ShardMode; m != ShardModeReplica && m != ShardModeSharedDevice {
		return fmt.Errorf("core: experiment %q: unknown shard mode %q", e.Name, m)
	}
	if e.Trace != nil {
		if e.Workload != nil {
			return fmt.Errorf("core: experiment %q sets both Workload and Trace", e.Name)
		}
		if e.Stack.Shards > 1 {
			return fmt.Errorf("core: experiment %q: trace replay does not support sharded stacks", e.Name)
		}
		if err := e.Trace.resolve(); err != nil {
			return fmt.Errorf("core: experiment %q: %w", e.Name, err)
		}
		if e.Duration <= 0 {
			// Default to the replay's natural horizon: the recorded
			// span at the configured compression.
			e.Duration = e.Trace.defaultDuration()
		}
		return nil
	}
	if e.Duration <= 0 {
		return fmt.Errorf("core: experiment %q without duration", e.Name)
	}
	if err := e.Workload.Validate(); err != nil {
		return fmt.Errorf("core: experiment %q: %w", e.Name, err)
	}
	return nil
}

// aggregate folds per-run measures (in run order) into a Result.
func (e *Experiment) aggregate(perRun []RunMeasure) *Result {
	res := &Result{Experiment: e, PerRun: perRun,
		Hist: &metrics.Histogram{}, PerOwner: &metrics.PerOwner{}}
	for i := range perRun {
		res.Hist.Merge(perRun[i].Hist)
		res.PerOwner.Merge(perRun[i].PerOwner)
		res.Load.Merge(perRun[i].Load)
	}
	pad := 0
	if e.Trace != nil {
		pad = e.Trace.Workers()
	} else {
		pad = e.Workload.TotalThreads()
	}
	res.Jain = metrics.JainIndexCounts(res.PerOwner.OpsPadded(pad))
	res.Throughput = stats.Summarize(res.Throughputs())
	res.Flags = e.flags(res)
	return res
}

func (e *Experiment) kindSet() map[workload.OpKind]bool {
	if len(e.Kinds) == 0 {
		return nil
	}
	set := map[workload.OpKind]bool{}
	for _, k := range e.Kinds {
		set[k] = true
	}
	return set
}

// engineRunner is the per-run execution surface runOnce drives,
// satisfied by workload.Engine and trace.Engine.
type engineRunner interface {
	Setup(at sim.Time) (sim.Time, error)
	DropCaches()
	SetProbe(p *workload.Probe)
	Run(from, until sim.Time) (sim.Time, error)
	Load() metrics.LoadGauge
	Counter() metrics.Counter
}

// runOnce builds a fresh stack, sets up the workload, and measures
// one run. Replica sharding builds one stack per shard, each from its
// own rng split; every other case builds BuildSharedDevice's mounts,
// whose one-shard case is Build(rng). The workload engine reads its
// topology from the mounts.
func (e *Experiment) runOnce(seed uint64) (RunMeasure, error) {
	rng := sim.NewRNG(seed)
	var mounts []*vfs.Mount
	var err error
	if e.Stack.ShardMode == ShardModeReplica && e.Stack.Shards > 1 {
		mounts = make([]*vfs.Mount, e.Stack.Shards)
		for i := range mounts {
			if mounts[i], err = e.Stack.Build(rng.Split()); err != nil {
				return RunMeasure{}, err
			}
		}
	} else {
		mounts, err = e.Stack.BuildSharedDevice(rng, max(1, e.Stack.Shards))
		if err != nil {
			return RunMeasure{}, err
		}
	}
	// Per-run CPU noise: scale the tool's per-op overhead, modeling
	// run-to-run host variation even for fully cached workloads.
	w := e.Workload
	if noise := e.Stack.CPUNoiseFrac; noise > 0 && w != nil {
		factor := rng.NormalClamped(1, noise, 0.5, 1.5)
		w2 := *w
		w2.Threads = append([]workload.ThreadSpec(nil), w.Threads...)
		for i := range w2.Threads {
			w2.Threads[i].PerOpOverhead = sim.Time(float64(w2.Threads[i].PerOpOverhead) * factor)
		}
		w = &w2
	}
	var eng engineRunner
	if e.Trace != nil {
		eng, err = trace.NewEngine(mounts[0], e.Trace.engineConfig())
	} else {
		eng, err = workload.NewShardedEngine(mounts, w, rng.Uint64())
	}
	if err != nil {
		return RunMeasure{}, err
	}
	start, err := eng.Setup(0)
	if err != nil {
		return RunMeasure{}, err
	}
	if e.ColdCache {
		eng.DropCaches()
	}
	var cacheBytes int64
	for _, m := range mounts {
		m.ResetStats()
		// Report the total cache the run drew — summed over shard
		// replicas, each of which drew its own OS-reserve jitter.
		cacheBytes += int64(m.PC.L1.Capacity()) * 4096
	}

	seriesInterval := e.SeriesInterval
	if seriesInterval <= 0 {
		seriesInterval = 10 * sim.Second
	}
	m := RunMeasure{
		Seed:       seed,
		CacheBytes: cacheBytes,
		Hist:       &metrics.Histogram{},
		Series:     metrics.NewTimeSeriesOffset(seriesInterval, start),
		PerOwner:   &metrics.PerOwner{},
	}
	probe := &workload.Probe{
		Series:   m.Series,
		Hist:     m.Hist,
		PerOwner: m.PerOwner,
		Kinds:    e.kindSet(),
	}
	window := e.MeasureWindow
	if window <= 0 || window > e.Duration {
		window = e.Duration
	}
	probe.HistSince = start + e.Duration - window
	if e.TimelineInterval > 0 {
		m.Timeline = metrics.NewHistogramTimelineOffset(e.TimelineInterval, start)
		probe.Timeline = m.Timeline
	}
	eng.SetProbe(probe)
	if _, err := eng.Run(start, start+e.Duration); err != nil {
		return RunMeasure{}, err
	}
	// Each thread's last op finishes past the horizon, in a bucket of
	// its own; keep only the buckets wholly inside the run.
	m.Series.Truncate(start + e.Duration)

	// Throughput over the measurement window: the histogram already
	// holds exactly the window's ops of the measured kinds.
	m.Ops = m.Hist.Count()
	m.Throughput = float64(m.Ops) / window.Seconds()
	// Pool the hit ratio over shard caches (a single mount reduces to
	// its own ratio).
	var hits, misses int64
	for _, mt := range mounts {
		st := mt.PC.L1.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	if total := hits + misses; total > 0 {
		m.HitRatio = float64(hits) / float64(total)
	}
	m.Load = eng.Load()
	m.Errors = eng.Counter().Errors
	return m, nil
}

// flags inspects the aggregate for the three refusal conditions.
func (e *Experiment) flags(res *Result) Flags {
	var f Flags
	if len(res.Hist.Modes(0.05)) >= 2 {
		f.Bimodal = true
	}
	if res.Throughput.RSD > 0.10 {
		f.HighVariance = true
	}
	// Stationarity: look at the first run's full throughput curve.
	if len(res.PerRun) > 0 && res.PerRun[0].Series != nil {
		rates := res.PerRun[0].Series.Rates()
		if len(rates) >= 10 {
			if _, ok := stats.StationaryTail(rates); !ok {
				f.NonStationary = true
			}
		}
	}
	return f
}
