// Package fsbench is a statistically rigorous, dimension-aware file
// system benchmarking framework — a working implementation of the
// methodology called for in "Benchmarking File System Benchmarking:
// It *IS* Rocket Science" (Tarasov, Bhanage, Zadok, Seltzer; HotOS
// XIII, 2011), together with the complete simulated storage stack
// (disk models, page cache, Ext2/Ext3/XFS-like file systems, VFS)
// needed to reproduce every figure and table in that paper
// deterministically.
//
// # Quick start
//
//	stack := fsbench.PaperStack()           // ext2, SATA disk, 512 MB RAM
//	exp := &fsbench.Experiment{
//	    Name:     "randomread-410MB",
//	    Stack:    stack,
//	    Workload: fsbench.RandomRead(410<<20, 2<<10, 1),
//	    Runs:     10,
//	    Duration: 20 * fsbench.Minute,
//	    MeasureWindow: fsbench.Minute,     // "report only the last minute"
//	    Seed:     1,
//	    Parallelism: 4,                    // fan runs across goroutines
//	}
//	res, err := exp.Run()
//	// res.Throughput: mean, stddev, RSD, 95% CI across the 10 runs
//	// res.Hist:       log2 latency histogram (the paper's Figure 3)
//	// res.Flags:      Bimodal / NonStationary / HighVariance refusals
//
// Runs execute across a worker pool (Parallelism; 0 = GOMAXPROCS)
// with per-run seeds derived up front via DeriveSeed, so results are
// bit-identical at any parallelism level, including 1. See
// ExampleExperiment, ExampleSweep, and ExampleNanoSuite for runnable
// versions of the protocol on a scaled-down testbed.
//
// # Queueing and contention
//
// The measured phase of every run executes on a discrete-event kernel
// (DESIGN.md): virtual threads are simulated processes that block when
// they issue I/O and wake on the completion event, and a bounded
// device queue drained by a pluggable I/O scheduler sits in front of
// the device. The queue keeps up to the device's service width in
// flight: mechanical models (hdd, ssd, ramdisk) service one request
// at a time, the NVMe model one per channel. Three StackConfig knobs
// control it:
//
//   - QueueDepth bounds the scheduler's reorder window (0 = 32,
//     NCQ-scale; 1 degenerates every scheduler to FCFS).
//   - Scheduler picks the policy: "fcfs", "elevator" (C-LOOK), "ncq"
//     (shortest-seek-first with anti-starvation), or "cfq"
//     (per-requester queues with time-sliced round-robin).
//   - Device picks the model ("hdd", "ssd", "ramdisk", "nvme"), with
//     NVMeChannels setting device-side concurrency (0 = 4).
//
// Contention therefore emerges instead of being assumed: a 16-thread
// workload at QueueDepth 32 completes more operations than at depth 1,
// and its p99 latency inflates as reordering starves unlucky requests.
// ThreadCountSweep sweeps the scaling dimension directly; see
// examples/contention for the saturation curve and examples/nvme for
// channel-count scaling on the multi-queue device.
//
// # Requester identity and fairness
//
// Every I/O carries the identity of the thread (or daemon) that
// issued it: workload threads have stable OwnerIDs, the write-back
// daemon — a pdflush-style periodic wake that ages out dirty pages
// while writers park at the dirty high-water mark — submits under its
// own identity, and owner-aware scheduling (cfq) and
// per-thread accounting key on it. Result.PerOwner holds per-thread
// op counts and latency histograms, Result.Jain the Jain fairness
// index of the service split; see examples/fairness for cfq vs ncq
// on a mixed 34-thread workload.
//
// # Open- versus closed-loop load
//
// Thread classes default to the classic closed loop: each thread
// issues its next operation when the previous one completes, so the
// generator self-throttles under load and saturation never shows in
// the latencies. ThreadSpec.Arrival selects an open-loop arrival
// process instead (poisson/uniform/burst at a target rate): a
// generator stamps arrival times and dispatches op instances to the
// class's worker pool, latency is measured from arrival (queue
// entry), and Result.Load reports offered versus completed operations
// with the backlog high-water mark. ArrivalRateSweep sweeps offered
// load directly; `fsrepro -fig openloop` contrasts the two loops at
// matched throughput (closed-loop latency stays flat across offered
// load, open-loop latency explodes past the saturation knee), and
// examples/openloop is the scaled-down walkthrough. See DESIGN.md §7.
//
// # What lives where
//
//   - Experiments, sweeps, fragility analysis, comparisons: this
//     package (re-exported from internal/core).
//   - Workload personalities and the WDL language: RandomRead,
//     WebServer, ..., ParseWDL (internal/workload).
//   - The nano-benchmark suite of §4: NanoSuite (internal/nano).
//   - The self-scaling benchmark and cliff search: SelfScale*,
//     CliffSearch (internal/selfscale).
//   - Table 1 survey data: SurveyTable1 (internal/survey).
//   - Trace capture and replay: NewTraceRecorder, Replay
//     (internal/trace).
//
// Everything runs under virtual time: results are exactly
// reproducible from (configuration, seed) and host-machine noise
// cannot leak into them. Variance is *modeled* where the paper locates
// it — disk mechanics and run-to-run cache availability — so the
// fragility phenomena the paper demonstrates appear for the reasons
// the paper gives, not as simulation artifacts.
package fsbench

import (
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nano"
	"repro/internal/selfscale"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Virtual-time units (see sim.Time).
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Time is a virtual-time instant or duration in nanoseconds.
type Time = sim.Time

// Core experiment machinery.
type (
	// StackConfig describes a system under test (file system, device,
	// memory, cache policy); see PaperStack for the paper's testbed.
	StackConfig = core.StackConfig
	// Experiment is a multi-run measured configuration.
	Experiment = core.Experiment
	// Result aggregates an experiment's runs with summary statistics,
	// a merged latency histogram, and refusal flags.
	Result = core.Result
	// RunMeasure is a single run's measurements.
	RunMeasure = core.RunMeasure
	// Flags are the conditions under which the harness refuses to
	// stand behind a single number.
	Flags = core.Flags
	// Sweep runs an experiment across a parameter range.
	Sweep = core.Sweep
	// SweepResult is a full sweep curve.
	SweepResult = core.SweepResult
	// FragilityReport locates transition regions in a sweep.
	FragilityReport = core.FragilityReport
	// Comparison is a significance-gated two-system comparison.
	Comparison = core.Comparison
	// Runner fans experiment runs and sweep points across a bounded
	// worker pool; results are bit-identical at any Parallelism.
	Runner = core.Runner
	// ProgressEvent reports runs completed / total and per-point flags.
	ProgressEvent = core.ProgressEvent
	// ProgressFunc consumes serialized progress events.
	ProgressFunc = core.ProgressFunc
	// Recorder receives every completed Result (Experiment.Recorder);
	// a warehouse.Store satisfies it to archive runs.
	Recorder = core.Recorder
	// Dimension is one of the paper's five file-system dimensions.
	Dimension = core.Dimension
	// Coverage grades how strongly a workload exercises a dimension.
	Coverage = core.Coverage
)

// Dimensions and coverage levels (Table 1 legend).
const (
	DimIO       = core.DimIO
	DimOnDisk   = core.DimOnDisk
	DimCaching  = core.DimCaching
	DimMetaData = core.DimMetaData
	DimScaling  = core.DimScaling

	NotCovered = core.NotCovered
	Touches    = core.Touches
	Isolates   = core.Isolates
)

// Shard partitioning modes (StackConfig.ShardMode). Replica sharding
// (the default, empty string) gives every shard a private device and
// is an execution knob invisible to fingerprints; shared-device
// sharding routes every shard's I/O to one device-owning shard and is
// part of the measured configuration.
const (
	ShardModeReplica      = core.ShardModeReplica
	ShardModeSharedDevice = core.ShardModeSharedDevice
)

// PaperStack returns the paper's testbed configuration: Ext2 over the
// Maxtor 7L250S0 SATA model with 512 MB RAM, ~102 MB of it held by
// the OS with ±2 MB run-to-run jitter.
func PaperStack() StackConfig { return core.PaperStack() }

// Compare performs the significance-gated comparison of two results
// at level alpha (Welch t-test and Mann-Whitney U must both agree).
func Compare(a, b *Result, alpha float64) Comparison { return core.Compare(a, b, alpha) }

// DeriveSeed deterministically mixes a base seed with a stream index
// (splitmix64); the engine uses it to give run i the seed
// DeriveSeed(Seed, i) regardless of execution order.
func DeriveSeed(base, index uint64) uint64 { return sim.DeriveSeed(base, index) }

// FileSizeSweep builds the paper's Figure 1 sweep: single-thread 2 KB
// random reads at each file size.
func FileSizeSweep(stack StackConfig, sizes []int64, runs int, duration, window Time, seed uint64) *Sweep {
	return core.FileSizeSweep(stack, sizes, runs, duration, window, seed)
}

// ThreadCountSweep builds a scaling sweep: mk(threads) at each count
// (nil mk selects the FileServer personality). Thread contention for
// the device queue makes throughput saturate and tail latency inflate
// as the count grows.
func ThreadCountSweep(stack StackConfig, mk func(threads int) *Workload,
	counts []int, runs int, duration, window Time, seed uint64) *Sweep {
	return core.ThreadCountSweep(stack, mk, counts, runs, duration, window, seed)
}

// ArrivalRateSweep builds an offered-load sweep: the open-loop
// workload mk(rate) at each arrival rate in ops/sec (nil mk selects
// the Poisson random-read personality OpenLoopRead). Past device
// capacity the completed rate pins, the backlog grows, and
// arrival-to-completion latency explodes — the open-loop knee a
// closed loop self-throttles away.
func ArrivalRateSweep(stack StackConfig, mk func(rate float64) *Workload,
	rates []float64, runs int, duration, window Time, seed uint64) *Sweep {
	return core.ArrivalRateSweep(stack, mk, rates, runs, duration, window, seed)
}

// ClassifyWorkload reports which dimensions a workload exercises on a
// stack with the given cache size.
func ClassifyWorkload(w *Workload, cacheBytes int64) map[Dimension]Coverage {
	return core.ClassifyWorkload(w, cacheBytes)
}

// Workload construction.
type (
	// Workload is a Filebench-style benchmark description.
	Workload = workload.Workload
	// FileSet is a named collection of files.
	FileSet = workload.FileSet
	// ThreadSpec is a thread class looping over flowops.
	ThreadSpec = workload.ThreadSpec
	// Flowop is one operation in a thread's loop.
	Flowop = workload.Flowop
	// OpKind enumerates flowop operations.
	OpKind = workload.OpKind
	// Arrival selects a thread class's load-generation discipline:
	// the default closed loop, or an open-loop arrival process
	// (Poisson/uniform/burst at a target rate) whose arrivals are not
	// gated by completions and whose latency is measured from arrival.
	Arrival = workload.Arrival
	// ArrivalKind enumerates arrival disciplines.
	ArrivalKind = workload.ArrivalKind
)

// Arrival disciplines (see DESIGN.md §7).
const (
	ArrivalClosed  = workload.ArrivalClosed
	ArrivalPoisson = workload.ArrivalPoisson
	ArrivalUniform = workload.ArrivalUniform
	ArrivalBurst   = workload.ArrivalBurst
)

// Stock personalities (see internal/workload for parameters).
var (
	RandomRead      = workload.RandomRead
	SequentialRead  = workload.SequentialRead
	RandomWrite     = workload.RandomWrite
	SequentialWrite = workload.SequentialWrite
	OpenLoopRead    = workload.OpenLoopRead
	CreateDelete    = workload.CreateDelete
	WebServer       = workload.WebServer
	FileServer      = workload.FileServer
	VarMail         = workload.VarMail
	OLTP            = workload.OLTP
	MixedRegions    = workload.MixedRegions
)

// WorkloadByName builds a stock personality with representative
// defaults ("randomread", "webserver", ...).
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// ParseWDL reads a workload description in the WDL text format.
func ParseWDL(r io.Reader) (*Workload, error) { return workload.ParseWDL(r) }

// FormatWDL renders a workload as WDL text.
func FormatWDL(w *Workload) string { return workload.FormatWDL(w) }

// Measurement types.
type (
	// Histogram is a log2 latency histogram (Figures 3 and 4).
	Histogram = metrics.Histogram
	// Quantile is a rank written as a fraction in [0, 1], as
	// Histogram.Quantile takes it: 0.99 is p99.
	Quantile = metrics.Quantile
	// TimeSeries is a throughput-over-time curve (Figure 2).
	TimeSeries = metrics.TimeSeries
	// HistogramTimeline is a latency histogram per interval (Figure 4).
	HistogramTimeline = metrics.HistogramTimeline
	// PerOwner is per-thread op counts and latency histograms, keyed
	// by the engine's stable thread OwnerIDs (the fairness view).
	PerOwner = metrics.PerOwner
	// LoadGauge is the open-loop offered-vs-completed gauge with the
	// backlog high-water mark (Result.Load).
	LoadGauge = metrics.LoadGauge
	// Summary is the descriptive-statistics bundle (mean, σ, RSD,
	// 95% CI).
	Summary = stats.Summary
)

// The latency ranks the harness reports.
const (
	P50 = metrics.P50
	P99 = metrics.P99
)

// JainIndex computes the Jain fairness index of an allocation: 1.0
// for equal shares, approaching 1/n as one requester takes all.
func JainIndex(xs []float64) float64 { return metrics.JainIndex(xs) }

// JainIndexCounts is JainIndex over integer op counts.
func JainIndexCounts(xs []int64) float64 { return metrics.JainIndexCounts(xs) }

// Nano-benchmark suite (§4's proposal).
type (
	// NanoScore is one nano-benchmark result.
	NanoScore = nano.Score
	// NanoSuite is an ordered set of nano-benchmarks.
	NanoSuite = nano.Suite
)

// DefaultNanoSuite returns the paper's minimum suite: in-memory,
// on-disk layout (fresh and aged), cache warm-up/eviction, meta-data
// operations, plus raw-device and scaling tests.
func DefaultNanoSuite() *NanoSuite { return nano.DefaultSuite() }

// Self-scaling benchmark (Chen & Patterson '93, the paper's ref [3]).
type (
	// SelfScaleParams is the self-scaling parameter vector.
	SelfScaleParams = selfscale.Params
	// SelfScaleConfig tunes the evaluation protocol.
	SelfScaleConfig = selfscale.Config
	// Cliff is a located performance discontinuity.
	Cliff = selfscale.Cliff
)

// CliffSearch bisects working-set size until the memory-to-disk cliff
// is bracketed tighter than resolution — the paper's "<6 MB" zoom.
func CliffSearch(cfg SelfScaleConfig, base SelfScaleParams, lo, hi int64, ratio float64, resolution int64) (Cliff, error) {
	return selfscale.CliffSearch(cfg, base, lo, hi, ratio, resolution)
}

// SelfScaleDefaults returns a base point centered on the stack's
// cache size.
func SelfScaleDefaults(stack StackConfig) SelfScaleParams { return selfscale.DefaultParams(stack) }

// Survey (Table 1).
type SurveyEntry = survey.Entry

// SurveyTable1 returns the paper's Table 1 rows.
func SurveyTable1() []SurveyEntry { return survey.Table1() }

// RenderSurvey writes Table 1 in the paper's layout.
func RenderSurvey(w io.Writer) error { return survey.Render(w, survey.Table1()) }

// Traces. A capture is an FSBT v2 file (a streaming format carrying
// per-record owner and stream identity) and replays through the event
// kernel: per-stream procs contend on the device queue under one of
// three timing disciplines, and K traces merge into one multi-tenant
// contention scenario. Experiment.Trace is how a trace replays: set
// it (and leave Workload nil) to make a trace the experiment's
// workload source.
type (
	// Trace is an in-memory operation trace.
	Trace = trace.Trace
	// TraceRecorder collects a trace from a workload probe.
	TraceRecorder = trace.Recorder
	// TraceRecord is one traced operation.
	TraceRecord = trace.Record
	// TraceSource opens record iterators over one trace (file-backed
	// or in-memory); the replay engine streams through it in bounded
	// memory.
	TraceSource = trace.Source
	// TraceReplay configures trace replay as an Experiment's workload
	// source (Experiment.Trace).
	TraceReplay = core.TraceReplay
	// ReplayMode is the replay timing discipline.
	ReplayMode = trace.ReplayMode
)

// Trace replay disciplines: timed (open loop, faithful to recorded
// arrivals), afap (closed loop, as fast as possible), scaled (timed
// with inter-arrival gaps compressed ×Scale).
const (
	ReplayTimed  = trace.Timed
	ReplayAFAP   = trace.AFAP
	ReplayScaled = trace.Scaled
)

// ParseReplayMode resolves "timed", "afap", or "scaled".
func ParseReplayMode(s string) (ReplayMode, error) { return trace.ParseReplayMode(s) }

// NewTraceRecorder returns an empty trace recorder; install its
// Hook() as the workload probe's Trace function.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// TraceFileSource streams the FSBT v2 trace file at path without
// materializing its records.
func TraceFileSource(path string) TraceSource { return trace.FileSource(path) }

// TraceMemorySource iterates an in-memory trace.
func TraceMemorySource(t *Trace) TraceSource { return trace.MemorySource(t) }

// RecordWorkload runs a workload on a fresh stack for the given
// duration while recording its operation trace.
func RecordWorkload(w *Workload, stack StackConfig, duration Time, seed uint64) (*Trace, error) {
	rng := sim.NewRNG(seed)
	m, err := stack.Build(rng)
	if err != nil {
		return nil, err
	}
	eng, err := workload.NewEngine(m, w, rng.Uint64())
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	eng.SetProbe(&workload.Probe{Trace: rec.Hook()})
	start, err := eng.Setup(0)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(start, start+duration); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}
