// Command fsbench runs one workload against one configured stack and
// prints a full-disclosure report: multi-run summary with confidence
// intervals, refusal flags, the latency histogram, and the workload's
// dimension classification.
//
// Usage:
//
//	fsbench -workload randomread -fs ext2 -runs 10 -duration 60s
//	fsbench -workload randomread -arrival poisson -rate 150
//	fsbench -wdl my-workload.wdl -fs xfs -cold
//	fsbench -workload webserver -record ws.fsbt    # capture a trace
//	fsbench -replay ws.fsbt -replay-mode scaled -replay-scale 2
//	fsbench -replay ws.fsbt -replay-tenants 2 -sched cfq
//	fsbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	fsbench "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "randomread", "stock personality to run (see -list)")
		wdlPath      = flag.String("wdl", "", "WDL workload file (overrides -workload)")
		fsName       = flag.String("fs", "ext2", "file system model: ext2, ext3, xfs")
		devName      = flag.String("device", "hdd", "device model: hdd, ssd, ramdisk, nvme")
		nvmeChannels = flag.Int("nvme-channels", 0, "NVMe service channels (device-side concurrency; 0 = model default, 4)")
		ramMB        = flag.Int64("ram", 512, "RAM in MB")
		reserveMB    = flag.Int64("os-reserve", 102, "mean OS-reserved memory in MB")
		jitterMB     = flag.Int64("jitter", 2, "per-run OS reserve stddev in MB")
		policy       = flag.String("policy", "lru", "cache eviction policy: lru, fifo, clock, random, 2q, arc")
		queueDepth   = flag.Int("queue-depth", 0, "device queue reorder window (0 = 32; 1 disables reordering)")
		sched        = flag.String("sched", "", "I/O scheduler: fcfs, elevator, ncq, cfq (default elevator)")
		readahead    = flag.String("readahead", "", "readahead override: "+strings.Join(cache.ReadaheadNames(), ", ")+" (default: FS hint)")
		l2MB         = flag.Int64("l2", 0, "flash second-tier cache in MB (0 = none)")
		arrival      = flag.String("arrival", "", "override every thread class's arrival process: closed, poisson, uniform, burst (default: the workload's own)")
		rate         = flag.Float64("rate", 0, "offered ops/sec per thread class for open-loop arrivals (with -arrival)")
		burst        = flag.Int("burst", 8, "op instances per arrival epoch (with -arrival burst)")
		runs         = flag.Int("runs", 5, "independent runs")
		duration     = flag.String("duration", "60s", "virtual run length")
		window       = flag.String("window", "30s", "measurement window at the end of each run")
		cold         = flag.Bool("cold", false, "drop caches after setup (cold start)")
		seed         = flag.Uint64("seed", 1, "base seed")
		parallel     = flag.Int("parallel", 0, "concurrent runs, 0 = GOMAXPROCS (results are identical at any setting)")
		shards       = flag.Int("shards", 1, "event-loop shards per run; >1 models N replica stacks each serving 1/N of the threads (see DESIGN.md §9)")
		shardMode    = flag.String("shard-mode", "", "shard partitioning with -shards: empty = replica (N private devices, execution knob), shared-device = one device shard serving N thread shards (measured configuration; see DESIGN.md §9)")
		record       = flag.String("record", "", "capture the workload's operation trace to this FSBT v2 file (single run)")
		replay       = flag.String("replay", "", "replay the FSBT trace file instead of running a workload")
		replayMode   = flag.String("replay-mode", "timed", "replay timing discipline: timed (recorded arrivals), afap (closed loop), scaled (gaps compressed by -replay-scale)")
		replayScale  = flag.Float64("replay-scale", 2, "inter-arrival compression factor for -replay-mode scaled")
		replayTen    = flag.Int("replay-tenants", 1, "replay the trace N times concurrently under distinct tenants (multi-tenant merge)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		warehouseDir = flag.String("warehouse", "", "archive the full result (per-run samples and histograms) to this results-warehouse directory")
		progress     = flag.Bool("progress", true, "report per-run progress on stderr")
		list         = flag.Bool("list", false, "list stock personalities and exit")
		showHist     = flag.Bool("hist", true, "print the latency histogram")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *list {
		fmt.Println("stock personalities:")
		for _, name := range workload.Personalities() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	var w *fsbench.Workload
	if *replay == "" {
		var err error
		w, err = loadWorkload(*wdlPath, *workloadName)
		if err != nil {
			fatal(err)
		}
		if *arrival != "" {
			kind, err := workload.ParseArrivalKind(*arrival)
			if err != nil {
				fatal(fmt.Errorf("bad -arrival: %w", err))
			}
			for i := range w.Threads {
				w.Threads[i].Arrival = workload.Arrival{Kind: kind, Rate: *rate, Burst: *burst}
			}
			if err := w.Validate(); err != nil {
				fatal(fmt.Errorf("-arrival override: %w", err))
			}
		}
	}
	dur, err := workload.ParseDuration(*duration)
	if err != nil {
		fatal(fmt.Errorf("bad -duration: %w", err))
	}
	win, err := workload.ParseDuration(*window)
	if err != nil {
		fatal(fmt.Errorf("bad -window: %w", err))
	}
	// A replay's natural horizon is the (scaled) recorded span; only
	// an explicit -duration overrides it.
	durationSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "duration" {
			durationSet = true
		}
	})

	stack := fsbench.StackConfig{
		FS:              *fsName,
		Device:          *devName,
		NVMeChannels:    *nvmeChannels,
		DiskBytes:       64 << 30,
		RAMBytes:        *ramMB << 20,
		OSReserveBytes:  *reserveMB << 20,
		OSReserveJitter: *jitterMB << 20,
		CachePolicy:     *policy,
		QueueDepth:      *queueDepth,
		Scheduler:       *sched,
		Readahead:       *readahead,
		L2Bytes:         *l2MB << 20,
		Shards:          *shards,
		ShardMode:       *shardMode,
	}

	if *record != "" {
		if err := recordTrace(w, stack, dur, *seed, *record); err != nil {
			fatal(err)
		}
		return
	}

	exp := &fsbench.Experiment{
		Stack:         stack,
		Workload:      w,
		Runs:          *runs,
		Duration:      dur,
		MeasureWindow: win,
		ColdCache:     *cold,
		Seed:          *seed,
		Parallelism:   *parallel,
	}
	if *replay != "" {
		mode, err := fsbench.ParseReplayMode(*replayMode)
		if err != nil {
			fatal(err)
		}
		if *replayTen < 1 {
			fatal(fmt.Errorf("-replay-tenants must be >= 1"))
		}
		// Each tenant opens its own iterators over the same file, so
		// one capture merges into a K-tenant contention scenario.
		tenants := make([]fsbench.TraceSource, *replayTen)
		for i := range tenants {
			tenants[i] = fsbench.TraceFileSource(*replay)
		}
		tr := &fsbench.TraceReplay{
			Tenants: tenants,
			Mode:    mode,
			Scale:   *replayScale,
			Name:    filepath.Base(*replay),
		}
		exp.Workload = nil
		exp.Trace = tr
		exp.Name = fmt.Sprintf("replay-%s-%s", mode, tr.Name)
		if !durationSet {
			exp.Duration = 0 // default to the scaled recorded span
		}
		fmt.Printf("replay:   %s (%d records, %d streams, span %s, digest %s)\n",
			*replay, tr.Records(), tr.Workers(), tr.Span(), tr.Digest()[:min(12, len(tr.Digest()))])
		fmt.Printf("mode:     %s", mode)
		if mode == fsbench.ReplayScaled {
			fmt.Printf(" x%g", *replayScale)
		}
		if *replayTen > 1 {
			fmt.Printf(", %d tenants", *replayTen)
		}
		fmt.Printf("\nstack:    %s\n\n", stack)
	} else {
		exp.Name = w.Name
		fmt.Printf("workload: %s\nstack:    %s\n", w.Name, stack)
		cov := core.ClassifyWorkload(w, stack.CacheBytesMean())
		var dims []string
		for _, d := range core.AllDimensions() {
			if cov[d] != core.NotCovered {
				dims = append(dims, fmt.Sprintf("%s(%s)", d, cov[d]))
			}
		}
		fmt.Printf("measures: %s\n\n", strings.Join(dims, " "))
	}
	if *warehouseDir != "" {
		st, err := warehouse.Open(*warehouseDir)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		st.GitRev = warehouse.GitRev()
		exp.Recorder = st
	}
	progressOpen := false
	if *progress {
		exp.Progress = func(ev fsbench.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\rrun %d/%d", ev.Done, ev.Total)
			progressOpen = ev.Done != ev.Total
			if !progressOpen {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res, err := exp.Run()
	if err != nil {
		if progressOpen {
			fmt.Fprintln(os.Stderr) // terminate the \r progress line
		}
		fatal(err)
	}

	t := &report.Table{
		Title:   fmt.Sprintf("%s: %d runs x %s (window %s)", exp.Name, *runs, res.Experiment.Duration, win),
		Headers: []string{"run", "seed", "ops/s", "cache MB", "hit ratio", "errors"},
	}
	for i, m := range res.PerRun {
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", m.Seed),
			fmt.Sprintf("%.1f", m.Throughput),
			fmt.Sprintf("%d", m.CacheBytes>>20),
			fmt.Sprintf("%.3f", m.HitRatio),
			fmt.Sprintf("%d", m.Errors),
		)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		fatal(err)
	}
	s := res.Throughput
	fmt.Printf("\nthroughput: mean=%.1f ops/s  sd=%.1f  rsd=%.1f%%  95%% CI [%.1f, %.1f]\n",
		s.Mean, s.StdDev, s.RSD*100, s.CI95Lo, s.CI95Hi)
	if exp.Trace != nil {
		if n := exp.Trace.Workers(); n > 1 {
			sp := res.PerOwner.Spread(n)
			fmt.Printf("fairness:   jain=%.3f over %d replay streams (ops min=%d max=%d)\n",
				res.Jain, n, sp.MinOps, sp.MaxOps)
			if k := *replayTen; k > 1 && n%k == 0 {
				// Tenant-level fairness: every tenant replays the same
				// trace, so equal service means equal per-tenant ops.
				ops := res.PerOwner.OpsPadded(n)
				per := n / k
				sums := make([]int64, k)
				for i, o := range ops {
					sums[i/per] += o
				}
				fmt.Printf("tenants:    jain=%.3f over %d tenants (ops %v)\n",
					fsbench.JainIndexCounts(sums), k, sums)
			}
		}
	}
	if w != nil && w.TotalThreads() > 1 {
		n := w.TotalThreads()
		// Per-thread fairness: who actually got serviced. Jain = 1.0
		// means equal shares; starvation pushes it toward 1/threads.
		sp := res.PerOwner.Spread(n)
		if len(w.Threads) == 1 {
			fmt.Printf("fairness:   jain=%.3f over %d threads (ops min=%d max=%d)\n",
				res.Jain, n, sp.MinOps, sp.MaxOps)
		} else {
			// Mixed thread classes do different work, so one index over
			// all threads would conflate workload asymmetry with
			// scheduler unfairness; report the split per class
			// (OwnerIDs follow thread-spec declaration order).
			parts := ""
			ops := res.PerOwner.OpsPadded(n)
			off := 0
			for _, ts := range w.Threads {
				class := ops[off : off+ts.Count]
				off += ts.Count
				if ts.Count > 1 {
					parts += fmt.Sprintf("  %s=%.3f", ts.Name, fsbench.JainIndexCounts(class))
				}
			}
			if parts != "" {
				fmt.Printf("fairness:   per-class jain:%s (ops min=%d max=%d)\n",
					parts, sp.MinOps, sp.MaxOps)
			}
		}
	}
	if res.Load.Offered > 0 {
		// Open-loop disclosure: how much of the offered load the stack
		// absorbed, and how deep the arrival backlog got.
		fmt.Printf("open loop:  offered=%d completed=%d (%.1f%%) backlog peak=%d\n",
			res.Load.Offered, res.Load.Completed,
			res.Load.CompletionRatio()*100, res.Load.BacklogPeak)
	}
	fmt.Printf("verdict:    %s\n", res.Flags)
	if res.Flags.Any() {
		fmt.Println()
		if res.Flags.Bimodal {
			fmt.Println("  ! latency is multi-modal: report the histogram, not the mean")
		}
		if res.Flags.NonStationary {
			fmt.Println("  ! throughput never reached steady state: report the whole curve")
		}
		if res.Flags.HighVariance {
			fmt.Println("  ! run-to-run variance is high: single-run numbers are meaningless")
		}
	}
	if *showHist {
		fmt.Println()
		if err := report.Histogram(os.Stdout, "operation latency (log2 buckets)", res.Hist); err != nil {
			fatal(err)
		}
	}
}

// recordTrace runs the workload once on a fresh stack, captures its
// operation trace through the probe hook, and writes it as FSBT v2.
func recordTrace(w *fsbench.Workload, stack fsbench.StackConfig, dur fsbench.Time, seed uint64, path string) error {
	fmt.Printf("workload: %s\nstack:    %s\nrecording %s of operations...\n", w.Name, stack, dur)
	t, err := fsbench.RecordWorkload(w, stack, dur, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Summarize through the same resolver the replay path uses, so the
	// printed digest is exactly what a later -replay will report.
	tr := &fsbench.TraceReplay{Tenants: []fsbench.TraceSource{fsbench.TraceMemorySource(t)}}
	fmt.Printf("recorded: %s (%d records, %d streams, span %s, digest %s)\n",
		path, tr.Records(), tr.Workers(), tr.Span(), tr.Digest()[:min(12, len(tr.Digest()))])
	return nil
}

func loadWorkload(wdlPath, name string) (*fsbench.Workload, error) {
	if wdlPath != "" {
		f, err := os.Open(wdlPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fsbench.ParseWDL(f)
	}
	w, ok := fsbench.WorkloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown personality %q (try -list)", name)
	}
	return w, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
	os.Exit(1)
}
