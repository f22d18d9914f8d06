package fsbench

// Benchmark harness: one benchmark per paper table/figure, plus the
// ablation benches DESIGN.md §5 calls out. Each figure bench
// regenerates a scaled-down version of its experiment per iteration
// (so `go test -bench=.` terminates in reasonable time) and reports
// the figure's *shape* as benchmark metrics — the cliff ratio, the
// transition-region RSD, the warm-up divergence, the mode count. The
// full-scale regeneration with the paper's parameters is
// `cmd/fsrepro -all` (add -full for 20-minute runs); EXPERIMENTS.md
// records its output against the paper.

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/survey"
	"repro/internal/workload"
)

// benchStack is the paper's testbed scaled to 1/8 memory (64 MB RAM,
// ~51 MB page cache) so each bench iteration stays subsecond while
// preserving every ratio that matters.
func benchStack() StackConfig {
	return StackConfig{
		FS: "ext2", Device: "hdd", DiskBytes: 8 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20, OSReserveJitter: 1 << 20,
		CachePolicy: "lru",
	}
}

// BenchmarkFigure1 regenerates the Figure 1 sweep shape: throughput
// and relative standard deviation versus file size across the cache
// boundary. Reported metrics: the plateau-to-floor cliff ratio and
// the worst transition-region RSD.
func BenchmarkFigure1(b *testing.B) {
	stack := benchStack()
	cacheMB := stack.CacheBytesMean() >> 20
	sizes := []int64{
		cacheMB / 4 << 20, cacheMB / 2 << 20, (cacheMB - 8) << 20,
		(cacheMB + 2) << 20, (cacheMB + 16) << 20, cacheMB * 3 << 20,
	}
	var cliffRatio, worstRSD float64
	for i := 0; i < b.N; i++ {
		sweep := FileSizeSweep(stack, sizes, 3, 15*Second, 5*Second, uint64(i)*17+1)
		res, err := sweep.Run()
		if err != nil {
			b.Fatal(err)
		}
		sums := res.Summaries()
		cliffRatio = sums[0].Mean / sums[len(sums)-1].Mean
		worstRSD = 0
		for _, s := range sums {
			if s.RSD > worstRSD {
				worstRSD = s.RSD
			}
		}
	}
	b.ReportMetric(cliffRatio, "cliff-ratio")
	b.ReportMetric(worstRSD*100, "worst-rsd-%")
}

// BenchmarkFigure1Zoom regenerates the §3.1 zoom: the cliff search
// narrows the transition to a small window (the paper: < 6 MB).
func BenchmarkFigure1Zoom(b *testing.B) {
	stack := benchStack()
	var widthMB float64
	for i := 0; i < b.N; i++ {
		cfg := SelfScaleConfig{Stack: stack, Runs: 1,
			Duration: 10 * Second, Window: 5 * Second, Seed: uint64(i) + 1}
		base := SelfScaleParams{IOSize: 2 << 10, ReadFrac: 1, SeqFrac: 0, Threads: 1}
		cliff, err := CliffSearch(cfg, base,
			stack.CacheBytesMean()/2, stack.CacheBytesMean()*3, 3, 2<<20)
		if err != nil {
			b.Fatal(err)
		}
		widthMB = float64(cliff.Width()) / (1 << 20)
	}
	b.ReportMetric(widthMB, "cliff-window-MB")
}

// BenchmarkFigure2 regenerates the warm-up timeline: ext2, ext3, and
// xfs random-reading a cache-fitting file from cold. Reported
// metrics: the end-to-end warm-up ratio and the maximum divergence
// between file systems mid-transition.
func BenchmarkFigure2(b *testing.B) {
	var rampRatio, divergence float64
	for i := 0; i < b.N; i++ {
		curves := map[string][]float64{}
		for _, fsName := range []string{"ext2", "ext3", "xfs"} {
			stack := benchStack()
			stack.FS = fsName
			stack.OSReserveJitter = 0
			exp := &Experiment{
				Name:  "fig2-" + fsName,
				Stack: stack,
				// ~80% of cache, as 410 MB was of the paper's 512 MB.
				Workload:       RandomRead(stack.CacheBytesMean()*4/5, 2<<10, 1),
				Runs:           1,
				Duration:       150 * Second,
				ColdCache:      true,
				Seed:           uint64(i) + 7,
				SeriesInterval: 5 * Second,
			}
			res, err := exp.Run()
			if err != nil {
				b.Fatal(err)
			}
			curves[fsName] = res.PerRun[0].Series.Rates()
		}
		e2 := curves["ext2"]
		rampRatio = e2[len(e2)-2] / (e2[0] + 1)
		divergence = 0
		for t := range e2 {
			lo, hi := e2[t], e2[t]
			for _, fsName := range []string{"ext3", "xfs"} {
				c := curves[fsName]
				if t < len(c) {
					if c[t] < lo {
						lo = c[t]
					}
					if c[t] > hi {
						hi = c[t]
					}
				}
			}
			if lo > 0 && hi/lo > divergence {
				divergence = hi / lo
			}
		}
	}
	b.ReportMetric(rampRatio, "warmup-ramp-x")
	b.ReportMetric(divergence, "fs-divergence-x")
}

// BenchmarkFigure3 regenerates the three latency histograms: file
// far below cache (unimodal memory), ~2x cache (bimodal), and far
// above cache (unimodal disk). Reported metric: the mode counts of
// the three panels encoded as a three-digit number (expect 121).
func BenchmarkFigure3(b *testing.B) {
	stack := benchStack()
	cache := stack.CacheBytesMean()
	var modeCode float64
	for i := 0; i < b.N; i++ {
		code := 0
		for _, size := range []int64{cache / 8, cache * 2, cache * 24} {
			exp := &Experiment{
				Name:     "fig3",
				Stack:    stack,
				Workload: RandomRead(size, 2<<10, 1),
				Runs:     1, Duration: 20 * Second, MeasureWindow: 8 * Second,
				Seed:  uint64(i) + 3,
				Kinds: []OpKind{workload.OpReadRand},
			}
			res, err := exp.Run()
			if err != nil {
				b.Fatal(err)
			}
			code = code*10 + len(res.Hist.Modes(0.05))
		}
		modeCode = float64(code)
	}
	b.ReportMetric(modeCode, "mode-pattern")
}

// BenchmarkFigure4 regenerates the histogram timeline: a cold run on
// a cache-fitting file, snapshotted periodically. Reported metrics:
// the dominant-mode bucket of the first and last snapshots (expect
// disk-scale ~bucket 22+ early, memory-scale ~bucket 12 late).
func BenchmarkFigure4(b *testing.B) {
	stack := benchStack()
	stack.OSReserveJitter = 0
	var earlyMode, lateMode float64
	for i := 0; i < b.N; i++ {
		exp := &Experiment{
			Name:             "fig4",
			Stack:            stack,
			Workload:         RandomRead(stack.CacheBytesMean()/2, 2<<10, 1),
			Runs:             1,
			Duration:         120 * Second,
			ColdCache:        true,
			Seed:             uint64(i) + 11,
			TimelineInterval: 10 * Second,
			Kinds:            []OpKind{workload.OpReadRand},
		}
		res, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		tl := res.PerRun[0].Timeline
		first, last := tl.At(0), tl.At(tl.Snapshots()-1)
		if first == nil || last == nil || first.Count() == 0 || last.Count() == 0 {
			b.Fatal("timeline snapshots missing")
		}
		em := first.Modes(0.05)
		lm := last.Modes(0.05)
		earlyMode = float64(em[len(em)-1]) // slowest early mode
		lateMode = float64(lm[0])          // fastest late mode
	}
	b.ReportMetric(earlyMode, "early-mode-bucket")
	b.ReportMetric(lateMode, "late-mode-bucket")
}

// BenchmarkTable1 regenerates the survey table and verifies its
// aggregate invariants (usage totals, ad-hoc dominance).
func BenchmarkTable1(b *testing.B) {
	var adhoc float64
	for i := 0; i < b.N; i++ {
		entries := survey.Table1()
		if len(entries) != 19 {
			b.Fatal("table rows changed")
		}
		u1, u2 := survey.Totals(entries)
		if u1 == 0 || u2 == 0 {
			b.Fatal("empty totals")
		}
		adhoc = survey.AdHocShare(entries)
	}
	b.ReportMetric(adhoc*100, "adhoc-share-%")
}

// --- Ablations (DESIGN.md §5) -----------------------------------------

// BenchmarkAblationJitter quantifies design decision 3: the
// cache-availability jitter is what makes the transition region
// fragile. With jitter off, transition-region RSD collapses.
func BenchmarkAblationJitter(b *testing.B) {
	run := func(b *testing.B, jitter int64) {
		var rsd float64
		for i := 0; i < b.N; i++ {
			stack := benchStack()
			stack.OSReserveJitter = jitter
			size := stack.CacheBytesMean() + 1<<20 // just past the cache
			exp := &Experiment{
				Name:     "jitter",
				Stack:    stack,
				Workload: RandomRead(size, 2<<10, 1),
				Runs:     5, Duration: 15 * Second, MeasureWindow: 5 * Second,
				Seed: uint64(i)*13 + 1,
			}
			res, err := exp.Run()
			if err != nil {
				b.Fatal(err)
			}
			rsd = res.Throughput.RSD
		}
		b.ReportMetric(rsd*100, "transition-rsd-%")
	}
	b.Run("jitter=0MB", func(b *testing.B) { run(b, 0) })
	b.Run("jitter=1MB", func(b *testing.B) { run(b, 1<<20) })
}

// BenchmarkAblationElevator quantifies design decision 2: LBA-sorted
// write-back batches versus FCFS submission of the same batch.
func BenchmarkAblationElevator(b *testing.B) {
	mkReqs := func(rng *sim.RNG) []device.Request {
		reqs := make([]device.Request, 128)
		for i := range reqs {
			reqs[i] = device.Request{Op: device.Write, LBA: rng.Int63n(1 << 28), Sectors: 8, Owner: device.OwnerNone}
		}
		return reqs
	}
	b.Run("elevator", func(b *testing.B) {
		var total sim.Time
		for i := 0; i < b.N; i++ {
			h := device.NewHDD(device.DefaultHDD(), sim.NewRNG(uint64(i)))
			done, err := device.SubmitBatch(h, 0, mkReqs(sim.NewRNG(uint64(i)+99)))
			if err != nil {
				b.Fatal(err)
			}
			total = done
		}
		b.ReportMetric(total.Seconds()*1000, "virtual-ms/batch")
	})
	b.Run("fcfs", func(b *testing.B) {
		var total sim.Time
		for i := 0; i < b.N; i++ {
			h := device.NewHDD(device.DefaultHDD(), sim.NewRNG(uint64(i)))
			done, err := device.SubmitBatchFCFS(h, 0, mkReqs(sim.NewRNG(uint64(i)+99)))
			if err != nil {
				b.Fatal(err)
			}
			total = done
		}
		b.ReportMetric(total.Seconds()*1000, "virtual-ms/batch")
	})
}

// BenchmarkAblationEvictionPolicy sweeps the cache's eviction policy
// under a Zipf working set 2x the cache — the axis the paper says no
// benchmark measures.
func BenchmarkAblationEvictionPolicy(b *testing.B) {
	for _, policy := range []string{"lru", "fifo", "clock", "random", "2q", "arc"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				stack := benchStack()
				stack.CachePolicy = policy
				stack.OSReserveJitter = 0
				exp := &Experiment{
					Name:     "evict-" + policy,
					Stack:    stack,
					Workload: zipfReadWorkload(stack.CacheBytesMean() * 2),
					Runs:     1, Duration: 20 * Second, MeasureWindow: 10 * Second,
					Seed: uint64(i) + 5,
				}
				res, err := exp.Run()
				if err != nil {
					b.Fatal(err)
				}
				hit = res.PerRun[0].HitRatio
			}
			b.ReportMetric(hit*100, "hit-%")
		})
	}
}

// zipfReadWorkload reads Zipf-popular files totaling `total` bytes.
func zipfReadWorkload(total int64) *Workload {
	const files = 512
	return &Workload{
		Name: "zipfread",
		FileSets: []FileSet{{
			Name: "z", Dir: "/z", Entries: files,
			MeanSize: total / files, PreallocFrac: 1,
		}},
		Threads: []ThreadSpec{{
			Name: "r", Count: 1, PerOpOverhead: workload.DefaultPerOpOverhead,
			Flowops: []Flowop{{Kind: workload.OpReadRand, FileSet: "z", IOSize: 2 << 10, Zipf: true}},
		}},
	}
}

// BenchmarkAblationReadahead sweeps the readahead policy on a cold
// sequential scan: none vs fixed vs adaptive.
func BenchmarkAblationReadahead(b *testing.B) {
	for _, ra := range []string{"none", "fixed", "adaptive"} {
		ra := ra
		b.Run(ra, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				stack := benchStack()
				stack.Readahead = ra
				stack.OSReserveJitter = 0
				exp := &Experiment{
					Name:     "ra-" + ra,
					Stack:    stack,
					Workload: SequentialRead(128<<20, 64<<10, 1),
					Runs:     1, Duration: 10 * Second,
					ColdCache: true,
					Seed:      uint64(i) + 9,
				}
				res, err := exp.Run()
				if err != nil {
					b.Fatal(err)
				}
				// ops/s * 64 KB per op => bytes/sec.
				mbps = res.Throughput.Mean * 64 * 1024 / 1e6
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkMultiLevelCacheSteps exercises the paper's prediction that
// "more modern file systems rely on multiple cache levels ... the
// performance curve will have multiple distinctive steps": with a
// flash L2, the working-set sweep shows three plateaus. The metric is
// the number of distinct throughput levels found.
func BenchmarkMultiLevelCacheSteps(b *testing.B) {
	var levels float64
	for i := 0; i < b.N; i++ {
		stack := benchStack()
		stack.L2Bytes = 128 << 20
		stack.OSReserveJitter = 0
		cache := stack.CacheBytesMean()
		sizes := []int64{cache / 2, cache * 2, 600 << 20}
		var tps []float64
		for _, size := range sizes {
			exp := &Experiment{
				Name:     "l2",
				Stack:    stack,
				Workload: RandomRead(size, 2<<10, 1),
				Runs:     1, Duration: 20 * Second, MeasureWindow: 8 * Second,
				Seed: uint64(i) + 21,
			}
			res, err := exp.Run()
			if err != nil {
				b.Fatal(err)
			}
			tps = append(tps, res.Throughput.Mean)
		}
		// Count distinct levels: each must differ from the previous
		// by at least 2x.
		n := 1
		for j := 1; j < len(tps); j++ {
			if tps[j-1] > 2*tps[j] {
				n++
			}
		}
		levels = float64(n)
	}
	b.ReportMetric(levels, "plateaus")
}

// BenchmarkContention quantifies design decision 5 (queue depth and
// scheduler): a 16-thread disk-bound random read at queue depth 1 vs
// 32 under NCQ, on the single-service disk and on the multi-queue
// NVMe device (4 channels). The metrics are the depth-32 throughput
// gain and its p99 latency cost per device.
func BenchmarkContention(b *testing.B) {
	run := func(b *testing.B, dev string, depth, shards int, mode string, i int) (tp, p99ms float64) {
		stack := benchStack()
		stack.OSReserveJitter = 0
		stack.Scheduler = "ncq"
		stack.QueueDepth = depth
		stack.Shards = shards
		stack.ShardMode = mode
		duration, window := 15*Second, 5*Second
		if dev == "nvme" {
			stack.Device = "nvme"
			stack.NVMeChannels = 4
			// The NVMe device is ~100x faster, so the same virtual
			// duration would simulate ~100x the operations; shorten it
			// to keep the 1-CPU CI bench job's wall time bounded.
			duration, window = 5*Second, 2*Second
		}
		exp := &Experiment{
			Name:     "contention",
			Stack:    stack,
			Workload: RandomRead(1<<30, 2<<10, 16),
			Runs:     1, Duration: duration, MeasureWindow: window,
			ColdCache: true,
			// Seed by iteration only, so the qd=1 and qd=32 metrics
			// compare identical request streams.
			Seed:  uint64(i) + 31,
			Kinds: []OpKind{workload.OpReadRand},
		}
		res, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Throughput.Mean, float64(res.Hist.Quantile(P99)) / 1e6
	}
	for _, dev := range []string{"hdd", "nvme"} {
		for _, depth := range []int{1, 32} {
			dev, depth := dev, depth
			b.Run(fmt.Sprintf("dev=%s/qd=%d", dev, depth), func(b *testing.B) {
				var tp, p99 float64
				for i := 0; i < b.N; i++ {
					tp, p99 = run(b, dev, depth, 1, ShardModeReplica, i)
				}
				b.ReportMetric(tp, "ops/s")
				b.ReportMetric(p99, "p99-ms")
			})
		}
	}
	// Sharded-kernel legs: the qd=32 contention run again on 4
	// event-loop shards (4 replica stacks, 4 threads each), so the
	// bench artifacts track the parallel kernel's wall-clock cost per
	// device model. The per-run throughput differs from the shards=1
	// legs by design — 4 replica devices serve 4x the aggregate — so
	// the interesting series here is ns/op, not ops/s.
	for _, dev := range []string{"hdd", "nvme"} {
		dev := dev
		b.Run(fmt.Sprintf("dev=%s/qd=32/shards=4", dev), func(b *testing.B) {
			var tp, p99 float64
			for i := 0; i < b.N; i++ {
				tp, p99 = run(b, dev, 32, 4, ShardModeReplica, i)
			}
			b.ReportMetric(tp, "ops/s")
			b.ReportMetric(p99, "p99-ms")
		})
	}
	// Shared-device legs: the same qd=32 contention run partitioned as
	// two thread shards plus a device-owning shard — ONE device, so
	// unlike the replica legs these throughputs are comparable to the
	// shards=1 legs (minus the disclosed submit-hop lookahead and the
	// split cache). ns/op tracks the cross-shard mailbox cost per
	// device model.
	for _, dev := range []string{"hdd", "nvme"} {
		dev := dev
		b.Run(fmt.Sprintf("dev=%s/qd=32/shards=2/mode=shared", dev), func(b *testing.B) {
			var tp, p99 float64
			for i := 0; i < b.N; i++ {
				tp, p99 = run(b, dev, 32, 2, ShardModeSharedDevice, i)
			}
			b.ReportMetric(tp, "ops/s")
			b.ReportMetric(p99, "p99-ms")
		})
	}
	// Backlog-drain legs: the thread-count-driven regime the sharded
	// kernel exists for (ROADMAP's 10k-1M virtual threads). 100k cold
	// closed-loop readers each submit a miss at t=0 and the run is the
	// drain of that backlog, so total event work is O(threads) and
	// partitions cleanly across shards: wall-clock ns/op is the
	// speedup metric (≥2x at shards=4 needs GOMAXPROCS >= 2; on a
	// 1-CPU box the shards serialize and ns/op only tracks the
	// smaller per-shard event heaps).
	drain := func(b *testing.B, shards int, mode string) {
		for i := 0; i < b.N; i++ {
			stack := benchStack()
			stack.OSReserveJitter = 0
			stack.Scheduler = "ncq"
			stack.QueueDepth = 32
			stack.Shards = shards
			stack.ShardMode = mode
			exp := &Experiment{
				Name:     "contention-100k",
				Stack:    stack,
				Workload: MixedRegions(4, 25000, 0, 256<<20, 2<<10),
				Runs:     1,
				// One virtual second of issue; the O(threads)
				// backlog drain past `until` dominates the run.
				Duration:  Second,
				ColdCache: true,
				Seed:      uint64(i) + 31,
				Kinds:     []OpKind{workload.OpReadRand},
			}
			res, err := exp.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.PerRun[0].Ops == 0 {
				b.Fatal("100k-thread run measured no ops")
			}
		}
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		b.Run(fmt.Sprintf("threads=100k/shards=%d", shards), func(b *testing.B) {
			drain(b, shards, ShardModeReplica)
		})
	}
	// The shared-device drain is the speedup headline: the same single
	// device as shards=1, but the 100k threads' VFS/cache work spread
	// over 4 thread shards running concurrently with the device shard.
	// Compare its ns/op against threads=100k/shards=1 at GOMAXPROCS>=2
	// (BENCH_shards in CI records both).
	b.Run("threads=100k/shards=4/mode=shared", func(b *testing.B) {
		drain(b, 4, ShardModeSharedDevice)
	})
	// Open-loop leg: Poisson arrivals just past the disk's closed-loop
	// saturation (~150 ops/s on this scaled stack), short virtual
	// duration like the NVMe legs, so the bench artifacts track the
	// generator/worker-pool dispatch cost and the saturation tail.
	b.Run("dev=hdd/arrival=poisson", func(b *testing.B) {
		var tp, p99, done float64
		for i := 0; i < b.N; i++ {
			stack := benchStack()
			stack.OSReserveJitter = 0
			stack.Scheduler = "ncq"
			stack.QueueDepth = 32
			exp := &Experiment{
				Name:     "contention-openloop",
				Stack:    stack,
				Workload: OpenLoopRead(1<<30, 2<<10, 16, 180),
				Runs:     1, Duration: 5 * Second, MeasureWindow: 2 * Second,
				ColdCache: true,
				Seed:      uint64(i) + 31,
				Kinds:     []OpKind{workload.OpReadRand},
			}
			res, err := exp.Run()
			if err != nil {
				b.Fatal(err)
			}
			tp = res.Throughput.Mean
			p99 = float64(res.Hist.Quantile(P99)) / 1e6
			done = res.Load.CompletionRatio()
		}
		b.ReportMetric(tp, "ops/s")
		b.ReportMetric(p99, "p99-ms")
		b.ReportMetric(done*100, "completed-%")
	})
}

// BenchmarkSimulatorThroughput measures the simulator itself: how
// many virtual operations per wall-clock second the memory-bound
// random-read path sustains.
func BenchmarkSimulatorThroughput(b *testing.B) {
	stack := benchStack()
	stack.OSReserveJitter = 0
	m, err := stack.Build(sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	fd, now, err := m.Create(0, "/bench")
	if err != nil {
		b.Fatal(err)
	}
	if now, err = m.Write(now, fd, 0, 16<<20); err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := rng.Int63n(16<<20/2048) * 2048
		_, done, err := m.Read(now, fd, off, 2048)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// BenchmarkExperimentOverhead measures a complete small experiment
// end to end (stack build, setup, run, summarize).
func BenchmarkExperimentOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp := &Experiment{
			Name:     "tiny",
			Stack:    benchStack(),
			Workload: RandomRead(4<<20, 2<<10, 1),
			Runs:     1, Duration: Second,
			Seed: uint64(i),
		}
		if _, err := exp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
