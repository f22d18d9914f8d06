package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Stats are a rep's simulated statistics, gathered from public
// accessors after Run. A change that only speeds up the simulator must
// leave every field identical; Digest folds them into one string.
type Stats struct {
	Counter metrics.Counter
	Load    metrics.LoadGauge
	Hist    *metrics.Histogram
	Cache   cache.Stats
	Device  device.Stats
	// Queue is the device queue's counters (zero for a trace replay,
	// whose engine does not expose them), without the per-owner map.
	Queue device.QueueStats
	// QueueOwners hashes the per-owner queue counters in owner order.
	// drain-100k has 100k owners, and the hash keeps a rep small.
	QueueOwners string
	VFS         vfs.Stats
	// Resident and Capacity are the page cache's occupancy after Run,
	// in pages.
	Resident, Capacity int
	// Virtual is the virtual time Run covered.
	Virtual sim.Time
}

// Digest hashes the statistics into a short hex string.
func (s *Stats) Digest() string { return hash(s) }

// hash is a short hex SHA-256 of v's JSON encoding.
func hash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding %T: %v", v, err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// Rep is one repetition's measurements. Host-side fields vary run to
// run; Stats and Digest must not.
type Rep struct {
	Traced bool
	// SetupS is host seconds for everything up to Run: stack build,
	// engine construction (including a trace's pre-scan) and Setup.
	SetupS float64
	// RunS is host seconds of Run.
	RunS float64
	// Attempted counts simulated ops finished (ok or failed) plus
	// open-loop ops abandoned at the horizon; Failed counts the failed
	// and abandoned ones.
	Attempted, Failed int64
	// AllocBytes and AllocObjects are heap allocations during Run.
	AllocBytes, AllocObjects uint64
	// GCCycles and GCCPUShare cover Run: completed GC cycles, and GC
	// CPU time over all CPU time the runtime accounted.
	GCCycles   uint64
	GCCPUShare float64
	// MaxRSSMB is the rep process's peak resident set, filled in by the
	// parent process that ran it.
	MaxRSSMB float64
	Stats    Stats
	Digest   string
	// Trace holds the per-layer host times of a traced rep.
	Trace *TraceSummary `json:",omitempty"`
}

// Finished reports the simulated ops Run finished, ok or failed.
func (r *Rep) Finished() int64 { return r.Stats.Counter.Ops + r.Stats.Counter.Errors }

// engine is the per-run surface core.Experiment drives, satisfied by
// workload.Engine and trace.Engine.
type engine interface {
	Setup(at sim.Time) (sim.Time, error)
	DropCaches()
	SetProbe(p *workload.Probe)
	Run(from, until sim.Time) (sim.Time, error)
	Load() metrics.LoadGauge
	Counter() metrics.Counter
}

// RunRep runs one repetition of w at seed exactly as core.Experiment
// runs its first run, timing the phases on the host. tracePath names
// the replay trace (see WriteTrace); tr, when non-nil, assembles the
// stack with every layer wrapped and records spans during Run.
func RunRep(w *Workload, seed uint64, tracePath string, tr *Tracer) (*Rep, error) {
	rng := sim.NewRNG(sim.DeriveSeed(seed, 0))
	t0 := time.Now()
	var m *vfs.Mount
	var err error
	if tr != nil {
		m, err = tr.Build(w.Stack, rng)
	} else {
		m, err = w.Stack.Build(rng)
	}
	if err != nil {
		return nil, err
	}
	// The per-run CPU-noise draw, as core makes it: it scales the
	// tool's per-op overhead.
	load := w.Load
	if noise := w.Stack.CPUNoiseFrac; noise > 0 && load != nil {
		factor := rng.NormalClamped(1, noise, 0.5, 1.5)
		l2 := *load
		l2.Threads = append([]workload.ThreadSpec(nil), load.Threads...)
		for i := range l2.Threads {
			l2.Threads[i].PerOpOverhead = sim.Time(float64(l2.Threads[i].PerOpOverhead) * factor)
		}
		load = &l2
	}
	var eng engine
	if w.TraceRecords > 0 {
		src := trace.FileSource(tracePath)
		if tr != nil {
			src = tr.Source(src)
		}
		eng, err = trace.NewEngine(m, trace.EngineConfig{Mode: trace.Timed, Tenants: []trace.Source{src}})
	} else {
		eng, err = workload.NewEngine(m, load, rng.Uint64())
	}
	if err != nil {
		return nil, err
	}
	start, err := eng.Setup(0)
	if err != nil {
		return nil, err
	}
	if w.Cold {
		eng.DropCaches()
	}
	m.ResetStats()
	hist := &metrics.Histogram{}
	eng.SetProbe(&workload.Probe{
		Series:    metrics.NewTimeSeriesOffset(10*sim.Second, start),
		Hist:      hist,
		PerOwner:  &metrics.PerOwner{},
		HistSince: start,
	})
	setup := time.Since(t0)

	before := readRuntime()
	if tr != nil {
		tr.begin()
	}
	t1 := time.Now()
	end, err := eng.Run(start, start+w.Duration)
	run := time.Since(t1)
	if tr != nil {
		tr.end()
	}
	after := readRuntime()
	if err != nil {
		return nil, err
	}

	st := Stats{
		Counter: eng.Counter(), Load: eng.Load(), Hist: hist,
		Cache: m.PC.L1.Stats(), Device: m.Dev.Stats(), VFS: m.Stats(),
		Resident: m.PC.L1.Len(), Capacity: m.PC.L1.Capacity(),
		Virtual: end - start,
	}
	if q, ok := eng.(interface{ QueueStats() device.QueueStats }); ok {
		st.Queue = q.QueueStats()
		st.QueueOwners = hash(st.Queue.PerOwner) // maps encode in key order
		st.Queue.PerOwner = nil
	}
	abandoned := st.Load.Offered - st.Load.Completed
	rep := &Rep{
		Traced:       tr != nil,
		SetupS:       setup.Seconds(),
		RunS:         run.Seconds(),
		Attempted:    st.Counter.Ops + st.Counter.Errors + abandoned,
		Failed:       st.Counter.Errors + abandoned,
		AllocBytes:   after.allocBytes - before.allocBytes,
		AllocObjects: after.allocObjects - before.allocObjects,
		GCCycles:     after.gcCycles - before.gcCycles,
		Stats:        st,
		Digest:       st.Digest(),
	}
	if cpu := after.cpuTotal - before.cpuTotal; cpu > 0 {
		rep.GCCPUShare = (after.cpuGC - before.cpuGC) / cpu
	}
	if tr != nil {
		rep.Trace = tr.summary(run)
	}
	return rep, nil
}

// ExperimentResult is what core.Experiment reports for a workload's
// first run: the fields fsperf's own rep must reproduce.
type ExperimentResult struct {
	Hist     *metrics.Histogram
	Errors   int64
	HitRatio float64
}

// RunExperiment runs w's first rep through core.Experiment itself: one
// run, one worker, the whole run measured.
func RunExperiment(w *Workload, seed uint64, tracePath string) (*ExperimentResult, error) {
	e := &core.Experiment{
		Name: w.Name, Stack: w.Stack, Workload: w.Load,
		Runs: 1, Parallelism: 1, Duration: w.Duration, ColdCache: w.Cold, Seed: seed,
	}
	if w.TraceRecords > 0 {
		e.Workload = nil
		e.Trace = &core.TraceReplay{Tenants: []trace.Source{trace.FileSource(tracePath)}, Mode: trace.Timed}
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	run := res.PerRun[0]
	return &ExperimentResult{Hist: run.Hist, Errors: run.Errors, HitRatio: run.HitRatio}, nil
}

// runtimeSample is a snapshot of the runtime counters a rep reports.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	cpuGC, cpuTotal                    float64
}

// readRuntime takes the allocation counts from runtime.ReadMemStats,
// which flushes every P's allocation cache first and so counts exactly
// (runtime/metrics' /gc/heap/allocs counters lag by up to a cached span
// per size class), and the CPU classes from runtime/metrics.
func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(cpu)
	return runtimeSample{
		allocBytes:   ms.TotalAlloc,
		allocObjects: ms.Mallocs,
		gcCycles:     uint64(ms.NumGC),
		cpuGC:        cpu[0].Value.Float64(),
		cpuTotal:     cpu[1].Value.Float64(),
	}
}
