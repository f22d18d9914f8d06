package main

import (
	"fmt"
	"io"
	"os"

	fsbench "repro"
	"repro/internal/report"
	"repro/internal/survey"
	"repro/internal/workload"
)

// Protocol is the measurement protocol: the paper's or a scaled quick
// variant.
type Protocol struct {
	Runs     int
	Duration fsbench.Time
	Window   fsbench.Time
	// Fig2Duration is the warm-up timeline length (the transition
	// itself takes ~15 minutes regardless of protocol).
	Fig2Duration fsbench.Time
	// Fig4Duration matches the paper's 280 s Figure 4 x-axis.
	Fig4Duration fsbench.Time
	Seed         uint64
	OutDir       string
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS). Every
	// figure is bit-identical at any setting.
	Parallelism int
	// Recorder, when non-nil, archives every figure's measured runs
	// (full per-run samples and histograms) — the -warehouse flag.
	Recorder fsbench.Recorder
	// Shards is the event-loop shard count stamped onto every
	// figure's stack — an execution knob like Parallelism, excluded
	// from warehouse fingerprints (DESIGN.md §9). The trace-replay
	// figure is the exception: it runs one stack at any setting,
	// since trace replay and its capture are single-stack.
	Shards int
	// ShardMode selects the shard partitioning with Shards > 1. The
	// default (empty, replica) is a pure execution knob; shared-device
	// changes what the figures measure — one contended device behind
	// all shards — and is included in warehouse fingerprints.
	ShardMode string
	// Tiny shrinks the figures that hard-code their own sweeps
	// (contention, qdsweep, openloop) to a couple of points at the
	// protocol's durations, Figure 1's two sweeps to a few points on
	// each side of the cliff, and Figure 3's largest file from 25 GB
	// to 4 GB. The output is still deterministic for a given seed —
	// the golden-file tests depend on that — but the numbers are
	// smoke-scale, not the paper's.
	Tiny bool
}

// stack stamps the protocol's execution knobs onto a figure's base
// stack, so -shards rides through every figure uniformly.
func (p Protocol) stack(s fsbench.StackConfig) fsbench.StackConfig {
	s.Shards = p.Shards
	s.ShardMode = p.ShardMode
	return s
}

// sweepProgress prints a stderr line as each sweep point completes.
func sweepProgress(ev fsbench.ProgressEvent) {
	if ev.PointDone {
		fmt.Fprintf(os.Stderr, "  point %d (x=%g) done, %d/%d runs [%s]\n",
			ev.Point, ev.X, ev.Done, ev.Total, ev.Flags)
	}
}

// expProgress reports pooled-experiment completions by name on stderr
// (the figures that fan several experiments through one Runner).
func expProgress(exps []*fsbench.Experiment) fsbench.ProgressFunc {
	return func(ev fsbench.ProgressEvent) {
		if ev.PointDone {
			fmt.Fprintf(os.Stderr, "  %s done, %d/%d runs [%s]\n",
				exps[ev.Point].Name, ev.Done, ev.Total, ev.Flags)
		}
	}
}

func quickProtocol() Protocol {
	return Protocol{
		Runs:         5,
		Duration:     60 * fsbench.Second,
		Window:       30 * fsbench.Second,
		Fig2Duration: 1200 * fsbench.Second,
		Fig4Duration: 280 * fsbench.Second,
	}
}

func paperProtocol() Protocol {
	return Protocol{
		Runs:         10,
		Duration:     20 * fsbench.Minute,
		Window:       fsbench.Minute,
		Fig2Duration: 1200 * fsbench.Second,
		Fig4Duration: 280 * fsbench.Second,
	}
}

func csvTo(w io.Writer, headers []string, rows [][]string) error {
	return report.CSV(w, headers, rows)
}

// figure1 sweeps file size 64 MB → 1024 MB in 64 MB steps on the
// paper stack, reporting throughput and relative standard deviation.
func figure1(proto Protocol) error {
	fmt.Println("=== Figure 1: Ext2 random-read throughput and relative std dev vs file size ===")
	stack := proto.stack(fsbench.PaperStack())
	var sizes []int64
	for mb := int64(64); mb <= 1024; mb += 64 {
		sizes = append(sizes, mb<<20)
	}
	if proto.Tiny {
		// The cached plateau, both sides of the cliff, and the tail.
		sizes = []int64{64 << 20, 384 << 20, 448 << 20, 1024 << 20}
	}
	sweep := fsbench.FileSizeSweep(stack, sizes, proto.Runs, proto.Duration, proto.Window, proto.Seed)
	sweep.Base.Recorder = proto.Recorder
	sweep.Parallelism = proto.Parallelism
	sweep.Progress = sweepProgress
	res, err := sweep.Run()
	if err != nil {
		return err
	}

	t := &report.Table{
		Headers: []string{"file size", "ops/sec", "rsd %", "95% CI", "flags"},
	}
	var rows [][]string
	var xs, tp, rsd []float64
	for _, p := range res.Points {
		s := p.Result.Throughput
		sizeMB := int64(p.X) >> 20
		t.AddRow(
			fmt.Sprintf("%dm", sizeMB),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.1f", s.RSD*100),
			fmt.Sprintf("[%.0f, %.0f]", s.CI95Lo, s.CI95Hi),
			p.Result.Flags.String(),
		)
		rows = append(rows, []string{
			fmt.Sprintf("%d", sizeMB),
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.4f", s.RSD),
			fmt.Sprintf("%.2f", s.CI95Lo),
			fmt.Sprintf("%.2f", s.CI95Hi),
		})
		xs = append(xs, float64(sizeMB))
		tp = append(tp, s.Mean)
		rsd = append(rsd, s.RSD*100)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	frag := res.Fragility(0.10)
	fmt.Printf("\nfragility: %s\n\n", frag)
	chart := &report.Chart{
		Title:  "throughput (log scale, *) and RSD%% (o) vs file size",
		XLabel: "file size 64m..1024m",
		X:      xs,
		LogY:   true,
		Series: []report.ChartSeries{
			{Name: "ops/sec", Y: tp, Marker: '*'},
			{Name: "rsd %", Y: rsd, Marker: 'o'},
		},
	}
	if _, err := chart.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := writeCSV(proto, "figure1.csv",
		[]string{"file_mb", "ops_per_sec", "rsd", "ci95_lo", "ci95_hi"}, rows); err != nil {
		return err
	}

	// The §3.1 observation behind Figure 1: at fine granularity the
	// transition region's relative standard deviation "skyrockets by
	// up to 35% (not visible on the figure because it only depicts
	// data points with a 64MB step)". Sweep the region around the
	// cache size in 2 MB steps to expose it.
	fmt.Println("--- Figure 1 fine sweep: 2 MB steps across the cache boundary ---")
	fineLo, fineHi := int64(400), int64(420)
	if proto.Tiny {
		// The last steady point, then the transition itself.
		fineLo, fineHi = 408, 418
	}
	var fine []int64
	for mb := fineLo; mb <= fineHi; mb += 2 {
		fine = append(fine, mb<<20)
	}
	fineSweep := fsbench.FileSizeSweep(stack, fine, proto.Runs, proto.Duration, proto.Window, proto.Seed+1000)
	fineSweep.Base.Recorder = proto.Recorder
	fineSweep.Parallelism = proto.Parallelism
	fineSweep.Progress = sweepProgress
	fineRes, err := fineSweep.Run()
	if err != nil {
		return err
	}
	ft := &report.Table{Headers: []string{"file size", "ops/sec", "rsd %", "flags"}}
	var fineRows [][]string
	maxRSD := 0.0
	for _, p := range fineRes.Points {
		s := p.Result.Throughput
		if s.RSD > maxRSD {
			maxRSD = s.RSD
		}
		ft.AddRow(
			fmt.Sprintf("%dm", int64(p.X)>>20),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.1f", s.RSD*100),
			p.Result.Flags.String(),
		)
		fineRows = append(fineRows, []string{
			fmt.Sprintf("%d", int64(p.X)>>20),
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.4f", s.RSD),
		})
	}
	if _, err := ft.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nworst transition-region RSD: %.0f%% (paper: \"skyrockets by up to 35%%\")\n", maxRSD*100)
	fineFrag := fineRes.Fragility(0.10)
	if fineFrag.Found {
		fmt.Printf("fine fragility: fragile region %d..%d MB, max adjacent ratio %.1fx\n\n",
			int64(fineFrag.LoX)>>20, int64(fineFrag.HiX)>>20, fineFrag.MaxAdjacentRatio)
	} else {
		fmt.Printf("fine fragility: %s\n\n", fineFrag)
	}
	return writeCSV(proto, "figure1fine.csv",
		[]string{"file_mb", "ops_per_sec", "rsd"}, fineRows)
}

// figure1zoom reproduces the §3.1 zoom: the cliff localized to a few
// MB by self-scaling search.
func figure1zoom(proto Protocol) error {
	fmt.Println("=== Figure 1 zoom (§3.1): localizing the cliff ===")
	stack := proto.stack(fsbench.PaperStack())
	cfg := fsbench.SelfScaleConfig{
		Stack: stack,
		Runs:  1,
		// The cliff search needs many evaluations; keep each short.
		Duration:    30 * fsbench.Second,
		Window:      15 * fsbench.Second,
		Seed:        proto.Seed,
		Parallelism: proto.Parallelism,
		Recorder:    proto.Recorder,
	}
	base := fsbench.SelfScaleParams{IOSize: 2 << 10, ReadFrac: 1, SeqFrac: 0, Threads: 1}
	cliff, err := fsbench.CliffSearch(cfg, base, 384<<20, 448<<20, 3, 2<<20)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", cliff)
	fmt.Printf("paper: \"performance drops within an even narrower region — less than 6MB in size\"\n\n")
	return writeCSV(proto, "figure1zoom.csv",
		[]string{"lo_mb", "hi_mb", "width_mb", "ops_lo", "ops_hi", "evals"},
		[][]string{{
			fmt.Sprintf("%d", cliff.LoBytes>>20),
			fmt.Sprintf("%d", cliff.HiBytes>>20),
			fmt.Sprintf("%.1f", float64(cliff.Width())/(1<<20)),
			fmt.Sprintf("%.0f", cliff.OpsLo),
			fmt.Sprintf("%.0f", cliff.OpsHi),
			fmt.Sprintf("%d", cliff.Evaluations),
		}})
}

// figure2 regenerates the warm-up timelines: ext2, ext3, xfs reading
// a 410 MB file from cold, throughput every 10 s.
func figure2(proto Protocol) error {
	fmt.Println("=== Figure 2: Ext2, Ext3, XFS throughput by time (410 MB file, cold cache) ===")
	type curve struct {
		name  string
		rates []float64
	}
	fsNames := []string{"ext2", "ext3", "xfs"}
	exps := make([]*fsbench.Experiment, len(fsNames))
	for i, fsName := range fsNames {
		stack := proto.stack(fsbench.PaperStack())
		stack.FS = fsName
		stack.OSReserveJitter = 0 // one run per system, as in the paper
		exps[i] = &fsbench.Experiment{
			Name:           "fig2-" + fsName,
			Stack:          stack,
			Workload:       fsbench.RandomRead(410<<20, 2<<10, 1),
			Runs:           1,
			Duration:       proto.Fig2Duration,
			ColdCache:      true,
			Seed:           proto.Seed,
			SeriesInterval: 10 * fsbench.Second,
			Kinds:          []fsbench.OpKind{workload.OpReadRand},
			Recorder:       proto.Recorder,
		}
	}
	// The three systems are independent: run them as one pool.
	runner := fsbench.Runner{Parallelism: proto.Parallelism, Progress: expProgress(exps)}
	results, err := runner.RunExperiments(exps)
	if err != nil {
		return err
	}
	var curves []curve
	for i, res := range results {
		curves = append(curves, curve{fsNames[i], res.PerRun[0].Series.Rates()})
		fmt.Printf("  %s: non-stationary=%v (the whole curve is the result)\n",
			fsNames[i], res.Flags.NonStationary)
	}
	n := len(curves[0].rates)
	for _, c := range curves {
		if len(c.rates) < n {
			n = len(c.rates)
		}
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i * 10)
	}
	chart := &report.Chart{
		Title:  "ops/sec vs time (10s buckets)",
		XLabel: fmt.Sprintf("time 0..%ds", (n-1)*10),
		X:      xs,
		Series: []report.ChartSeries{
			{Name: "ext2", Y: curves[0].rates[:n], Marker: '2'},
			{Name: "ext3", Y: curves[1].rates[:n], Marker: '3'},
			{Name: "xfs", Y: curves[2].rates[:n], Marker: 'x'},
		},
	}
	if _, err := chart.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	headers := []string{"t_sec", "ext2_ops", "ext3_ops", "xfs_ops"}
	var rows [][]string
	for i := 0; i < n; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i*10),
			fmt.Sprintf("%.1f", curves[0].rates[i]),
			fmt.Sprintf("%.1f", curves[1].rates[i]),
			fmt.Sprintf("%.1f", curves[2].rates[i]),
		})
	}
	return writeCSV(proto, "figure2.csv", headers, rows)
}

// figure3 regenerates the three read-latency histograms: 64 MB,
// 1024 MB, and 25 GB files at steady state.
func figure3(proto Protocol) error {
	fmt.Println("=== Figure 3: Ext2 read latency histograms by file size ===")
	var rows [][]string
	sizes := []int64{64 << 20, 1024 << 20, 25 << 30}
	if proto.Tiny {
		// Setup preallocates the whole file; 4 GB is still ten times
		// the cache, so the third histogram stays miss-dominated.
		sizes[2] = 4 << 30
	}
	exps := make([]*fsbench.Experiment, len(sizes))
	for i, size := range sizes {
		exps[i] = &fsbench.Experiment{
			Name:          fmt.Sprintf("fig3-%dMB", size>>20),
			Stack:         proto.stack(fsbench.PaperStack()),
			Workload:      fsbench.RandomRead(size, 2<<10, 1),
			Runs:          1,
			Duration:      proto.Duration,
			MeasureWindow: proto.Window,
			Seed:          proto.Seed,
			Kinds:         []fsbench.OpKind{workload.OpReadRand},
			Recorder:      proto.Recorder,
		}
	}
	// The three file sizes are independent: run them as one pool.
	runner := fsbench.Runner{Parallelism: proto.Parallelism, Progress: expProgress(exps)}
	results, err := runner.RunExperiments(exps)
	if err != nil {
		return err
	}
	for i, res := range results {
		size := sizes[i]
		label := fmt.Sprintf("(%c) %d MB file", 'a'+len(rows)/33, size>>20)
		if size >= 1<<30 {
			label = fmt.Sprintf("(%c) %d GB file", 'a'+len(rows)/33, size>>30)
		}
		fmt.Println()
		if err := report.Histogram(os.Stdout, label, res.Hist); err != nil {
			return err
		}
		modes := res.Hist.Modes(0.05)
		fmt.Printf("  modes: %d %v  bimodal-flag: %v\n", len(modes), modes, res.Flags.Bimodal)
		pct := res.Hist.Percentages()
		for b := 0; b < 33; b++ {
			rows = append(rows, []string{
				fmt.Sprintf("%d", size>>20),
				fmt.Sprintf("%d", b),
				fmt.Sprintf("%.3f", pct[b]),
			})
		}
	}
	fmt.Println()
	return writeCSV(proto, "figure3.csv",
		[]string{"file_mb", "log2_bucket", "percent_ops"}, rows)
}

// figure4 regenerates the histogram-over-time view: 256 MB file on
// ext2, cold start, snapshots every 10 s for 280 s.
func figure4(proto Protocol) error {
	fmt.Println("=== Figure 4: latency histograms by time (Ext2, 256 MB file, cold cache) ===")
	stack := proto.stack(fsbench.PaperStack())
	stack.OSReserveJitter = 0
	exp := &fsbench.Experiment{
		Name:             "fig4",
		Stack:            stack,
		Workload:         fsbench.RandomRead(256<<20, 2<<10, 1),
		Runs:             1,
		Duration:         proto.Fig4Duration,
		ColdCache:        true,
		Seed:             proto.Seed,
		TimelineInterval: 10 * fsbench.Second,
		Kinds:            []fsbench.OpKind{workload.OpReadRand},
		Parallelism:      proto.Parallelism,
		Recorder:         proto.Recorder,
	}
	res, err := exp.Run()
	if err != nil {
		return err
	}
	tl := res.PerRun[0].Timeline
	var rows [][]string
	fmt.Println("\n  t(s)   dominant modes (log2 bucket: % of ops)")
	for i := 0; i < tl.Snapshots(); i++ {
		h := tl.At(i)
		if h == nil || h.Count() < 50 {
			continue // partial tail snapshots mislead
		}
		pct := h.Percentages()
		line := fmt.Sprintf("  %4d  ", i*10)
		for _, m := range h.Modes(0.05) {
			line += fmt.Sprintf(" %2d:%5.1f%%", m, pct[m])
		}
		fmt.Println(line)
		for b := 0; b < 33; b++ {
			if pct[b] == 0 {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", i*10),
				fmt.Sprintf("%d", b),
				fmt.Sprintf("%.3f", pct[b]),
			})
		}
	}
	fmt.Println()
	return writeCSV(proto, "figure4.csv",
		[]string{"t_sec", "log2_bucket", "percent_ops"}, rows)
}

// figureContention is the new scaling-dimension figure the paper's
// Table 1 calls for but no surveyed benchmark isolates: thread count
// swept 1 → 64 at device queue depth 1 and 32. With the event-driven
// queue, throughput saturates once the disk is the bottleneck, the
// deeper window buys extra throughput via NCQ reordering, and p99
// latency inflates with contention.
func figureContention(proto Protocol) error {
	fmt.Println("=== Contention figure: thread-count sweep at queue depth 1 vs 32 ===")
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	fileBytes := int64(4 << 30)
	if proto.Tiny {
		counts = []int{1, 4, 16}
		// Setup cost is dominated by preallocating the file; 1 GB is
		// still ~2.5x the cache, so the points stay disk-bound.
		fileBytes = 1 << 30
	}
	mk := func(threads int) *fsbench.Workload {
		// Disk-bound random reads: a 4 GB file ≫ the 410 MB cache, and
		// wide enough on the 64 GB disk that reordering has seek
		// distance to reclaim.
		return fsbench.RandomRead(fileBytes, 2<<10, threads)
	}
	type depthCurve struct {
		depth int
		tp    []float64
		p99ms []float64
	}
	var curves []depthCurve
	for _, depth := range []int{1, 32} {
		stack := proto.stack(fsbench.PaperStack())
		stack.Scheduler = "ncq"
		stack.QueueDepth = depth
		sweep := fsbench.ThreadCountSweep(stack, mk, counts, proto.Runs,
			proto.Duration, proto.Window, proto.Seed+uint64(depth))
		sweep.Name = fmt.Sprintf("threadcount-qd%d", depth)
		sweep.Base.Recorder = proto.Recorder
		sweep.Parallelism = proto.Parallelism
		sweep.Progress = sweepProgress
		fmt.Printf("-- queue depth %d --\n", depth)
		res, err := sweep.Run()
		if err != nil {
			return err
		}
		c := depthCurve{depth: depth}
		for _, p := range res.Points {
			c.tp = append(c.tp, p.Result.Throughput.Mean)
			c.p99ms = append(c.p99ms, float64(p.Result.Hist.Quantile(fsbench.P99))/1e6)
		}
		curves = append(curves, c)
	}

	t := &report.Table{
		Headers: []string{"threads", "qd=1 ops/s", "qd=1 p99 ms", "qd=32 ops/s", "qd=32 p99 ms"},
	}
	var rows [][]string
	xs := make([]float64, len(counts))
	for i, n := range counts {
		xs[i] = float64(n)
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", curves[0].tp[i]),
			fmt.Sprintf("%.1f", curves[0].p99ms[i]),
			fmt.Sprintf("%.0f", curves[1].tp[i]),
			fmt.Sprintf("%.1f", curves[1].p99ms[i]),
		)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", curves[0].tp[i]),
			fmt.Sprintf("%.3f", curves[0].p99ms[i]),
			fmt.Sprintf("%.2f", curves[1].tp[i]),
			fmt.Sprintf("%.3f", curves[1].p99ms[i]),
		})
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	last := len(counts) - 1
	satTP := curves[1].tp[last] / curves[1].tp[0]
	fmt.Printf("\nqd=32: %d threads sustain %.1fx the 1-thread throughput (saturation, not linear scaling)\n",
		counts[last], satTP)
	// Compare the depths at a mid-sweep thread count (16 if present).
	mid := last / 2
	for i, n := range counts {
		if n == 16 {
			mid = i
		}
	}
	fmt.Printf("qd=32 vs qd=1 at %d threads: %.2fx throughput, %.2fx p99\n\n",
		counts[mid], curves[1].tp[mid]/curves[0].tp[mid], curves[1].p99ms[mid]/curves[0].p99ms[mid])
	chart := &report.Chart{
		Title:  "ops/sec vs threads (1 = qd1, 3 = qd32, log y)",
		XLabel: "threads 1..64",
		X:      xs,
		LogY:   true,
		Series: []report.ChartSeries{
			{Name: "qd=1", Y: curves[0].tp, Marker: '1'},
			{Name: "qd=32", Y: curves[1].tp, Marker: '3'},
		},
	}
	if _, err := chart.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return writeCSV(proto, "contention.csv",
		[]string{"threads", "qd1_ops", "qd1_p99_ms", "qd32_ops", "qd32_p99_ms"}, rows)
}

// figureFairness is the requester-identity figure: who actually got
// serviced, and at what tail cost. A 34-thread mixed-personality
// workload (four 8-reader classes pinned to disk stripes plus two
// paced log appenders feeding the write-back daemon) runs under cfq,
// ncq, and elevator; for each scheduler the figure reports throughput,
// the Jain fairness index over the 32 readers' op counts, the
// per-thread spread, and worst- vs best-thread p99 — the distribution
// the aggregate mean erases.
func figureFairness(proto Protocol) error {
	fmt.Println("=== Fairness figure: cfq vs ncq vs elevator, 32 readers + 2 writers ===")
	const (
		regions = 4
		perReg  = 8
		readers = regions * perReg
	)
	type schedResult struct {
		name string
		res  *fsbench.Result
		jain float64
	}
	scheds := []string{"cfq", "ncq", "elevator"}
	results := make([]schedResult, 0, len(scheds))
	for _, sched := range scheds {
		// Scaled testbed: data on half the disk so the stripes cost
		// real seeks, readahead off so the queue holds exactly the
		// threads' demand reads (prefetch would smear attribution).
		stack := proto.stack(fsbench.StackConfig{
			FS: "ext2", Device: "hdd", DiskBytes: 512 << 20,
			RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
			CachePolicy: "lru", Readahead: "none",
			Scheduler: sched,
		})
		exp := &fsbench.Experiment{
			Name:          "fairness-" + sched,
			Stack:         stack,
			Workload:      fsbench.MixedRegions(regions, perReg, 2, 64<<20, 2<<10),
			Runs:          proto.Runs,
			Duration:      proto.Duration,
			MeasureWindow: proto.Window,
			ColdCache:     true,
			Seed:          proto.Seed,
			Parallelism:   proto.Parallelism,
			Kinds:         []fsbench.OpKind{workload.OpReadRand},
			Recorder:      proto.Recorder,
		}
		fmt.Printf("-- %s --\n", sched)
		exp.Progress = func(ev fsbench.ProgressEvent) {
			if ev.Done == ev.Total {
				fmt.Fprintf(os.Stderr, "  %s done, %d/%d runs\n", exp.Name, ev.Done, ev.Total)
			}
		}
		res, err := exp.Run()
		if err != nil {
			return err
		}
		results = append(results, schedResult{
			name: sched,
			res:  res,
			jain: fsbench.JainIndexCounts(res.PerOwner.OpsPadded(readers)[:readers]),
		})
	}

	t := &report.Table{
		Headers: []string{"sched", "ops/s", "jain(readers)", "thread ops min..max", "p99 worst ms", "p99 best ms"},
	}
	var rows [][]string
	for _, sr := range results {
		ops := sr.res.PerOwner.OpsPadded(readers)[:readers]
		sp := sr.res.PerOwner.Spread(readers)
		t.AddRow(
			sr.name,
			fmt.Sprintf("%.0f", sr.res.Throughput.Mean),
			fmt.Sprintf("%.3f", sr.jain),
			fmt.Sprintf("%d..%d", sp.MinOps, sp.MaxOps),
			fmt.Sprintf("%.1f", float64(sp.WorstP99)/1e6),
			fmt.Sprintf("%.1f", float64(sp.BestP99)/1e6),
		)
		for o, n := range ops {
			p99 := int64(0)
			if h := sr.res.PerOwner.Hist(o); h != nil {
				p99 = h.Quantile(fsbench.P99)
			}
			rows = append(rows, []string{
				sr.name,
				fmt.Sprintf("%d", o),
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.3f", float64(p99)/1e6),
			})
		}
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\ncfq jain %.3f vs ncq %.3f: per-owner queues level service; ncq trades the edge stripes'\n",
		results[0].jain, results[1].jain)
	fmt.Printf("share for throughput (%.0f vs %.0f ops/s) — the cost the aggregate number hides\n\n",
		results[1].res.Throughput.Mean, results[0].res.Throughput.Mean)

	// Per-thread op counts, one series per scheduler: the starvation
	// pattern (middle stripes fat, edges thin) is visible directly.
	xs := make([]float64, readers)
	series := make([]report.ChartSeries, len(results))
	for i := range xs {
		xs[i] = float64(i)
	}
	markers := []byte{'c', 'n', 'e'}
	for i, sr := range results {
		ys := make([]float64, readers)
		for o, n := range sr.res.PerOwner.OpsPadded(readers)[:readers] {
			ys[o] = float64(n)
		}
		series[i] = report.ChartSeries{Name: sr.name, Y: ys, Marker: markers[i]}
	}
	chart := &report.Chart{
		Title:  "ops per reader thread (c = cfq, n = ncq, e = elevator)",
		XLabel: fmt.Sprintf("thread 0..%d (8 per disk stripe, low to high LBA)", readers-1),
		X:      xs,
		Series: series,
	}
	if _, err := chart.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return writeCSV(proto, "fairness.csv",
		[]string{"sched", "thread", "ops", "p99_ms"}, rows)
}

// figureQDSweep is the IO500-flavored queue-depth sweep on the
// multi-queue device model: 16-thread scattered 2 KB reads at
// QueueDepth 1/8/32 on the single-service disk and on NVMe at 1/4/8
// channels. On the HDD a deeper window buys only reordering (a few
// tens of percent); on NVMe reordering buys nothing (no seeks) but
// channel count scales throughput near-linearly — queue-depth sweeps
// on modern SSDs measure device-level concurrency, not scheduling,
// which is exactly the dimension a one-request-at-a-time device model
// erases.
func figureQDSweep(proto Protocol) error {
	fmt.Println("=== QD sweep figure: HDD vs NVMe across QueueDepth × channels ===")
	depths := []int{1, 8, 32}
	if proto.Tiny {
		depths = []int{1, 8}
	}
	devices := []struct {
		label    string
		device   string
		channels int
		marker   byte
	}{
		{"hdd", "hdd", 0, 'h'},
		{"nvme-1ch", "nvme", 1, '1'},
		{"nvme-4ch", "nvme", 4, '4'},
		{"nvme-8ch", "nvme", 8, '8'},
	}
	type curve struct {
		label string
		tp    []float64
	}
	var curves []curve
	var rows [][]string
	for _, d := range devices {
		c := curve{label: d.label}
		for _, qd := range depths {
			stack := proto.stack(fsbench.StackConfig{
				FS: "ext2", Device: d.device, NVMeChannels: d.channels,
				DiskBytes: 8 << 30, RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
				OSReserveJitter: 1 << 20, CachePolicy: "lru",
				Scheduler: "ncq", QueueDepth: qd,
			})
			runs, dur, win := proto.Runs, proto.Duration, proto.Window
			if d.device == "nvme" && !proto.Tiny {
				// The NVMe device is ~100x faster than the disk, so the
				// same virtual duration would simulate ~100x the
				// operations; shorter windows keep the figure's wall
				// time sane, and throughput is a rate either way.
				if runs > 3 {
					runs = 3
				}
				dur, win = 5*fsbench.Second, 2*fsbench.Second
			}
			exp := &fsbench.Experiment{
				Name:  fmt.Sprintf("qdsweep-%s-qd%d", d.label, qd),
				Stack: stack,
				// Scattered disk-bound reads: 1 GB file ≫ the ~51 MB
				// cache, 16 threads ≥ the widest channel count.
				Workload:      fsbench.RandomRead(1<<30, 2<<10, 16),
				Runs:          runs,
				Duration:      dur,
				MeasureWindow: win,
				ColdCache:     true,
				Seed:          proto.Seed,
				Parallelism:   proto.Parallelism,
				Kinds:         []fsbench.OpKind{workload.OpReadRand},
				Recorder:      proto.Recorder,
			}
			res, err := exp.Run()
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "  %s done (%.0f ops/s)\n", exp.Name, res.Throughput.Mean)
			c.tp = append(c.tp, res.Throughput.Mean)
			rows = append(rows, []string{
				d.label,
				fmt.Sprintf("%d", qd),
				fmt.Sprintf("%.2f", res.Throughput.Mean),
				fmt.Sprintf("%.4f", res.Throughput.RSD),
			})
		}
		curves = append(curves, c)
	}

	t := &report.Table{
		Headers: []string{"queue depth", "hdd ops/s", "nvme-1ch ops/s", "nvme-4ch ops/s", "nvme-8ch ops/s"},
	}
	for i, qd := range depths {
		t.AddRow(
			fmt.Sprintf("%d", qd),
			fmt.Sprintf("%.0f", curves[0].tp[i]),
			fmt.Sprintf("%.0f", curves[1].tp[i]),
			fmt.Sprintf("%.0f", curves[2].tp[i]),
			fmt.Sprintf("%.0f", curves[3].tp[i]),
		)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	last := len(depths) - 1
	fmt.Printf("\nhdd qd%d/qd1: %.2fx — reordering is all a deeper window buys a single-service disk\n",
		depths[last], curves[0].tp[last]/curves[0].tp[0])
	fmt.Printf("nvme qd%d/qd1 at 4 channels: %.2fx — no seeks, so the window buys ~nothing\n",
		depths[last], curves[2].tp[last]/curves[2].tp[0])
	fmt.Printf("nvme 8ch/1ch at qd%d: %.2fx — device-level concurrency is the axis that scales\n\n",
		depths[last], curves[3].tp[last]/curves[1].tp[last])

	xs := make([]float64, len(depths))
	for i, qd := range depths {
		xs[i] = float64(qd)
	}
	series := make([]report.ChartSeries, len(curves))
	for i, c := range curves {
		series[i] = report.ChartSeries{Name: c.label, Y: c.tp, Marker: devices[i].marker}
	}
	chart := &report.Chart{
		Title:  "ops/sec vs queue depth (h = hdd, 1/4/8 = nvme channels, log y)",
		XLabel: "queue depth 1..32",
		X:      xs,
		LogY:   true,
		Series: series,
	}
	if _, err := chart.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return writeCSV(proto, "qdsweep.csv",
		[]string{"device", "queue_depth", "ops_per_sec", "rsd"}, rows)
}

// figureOpenLoop is the harness-structure figure: the same offered
// load presented by a closed loop (think-paced threads, arrivals
// gated by completions) and an open loop (Poisson generator feeding a
// worker pool, arrivals independent of completions), swept across the
// device's saturation knee. Below capacity the two throughputs match
// and latencies agree; past the knee the closed loop self-throttles —
// latency stays flat-ish at queue-depth scale — while the open loop's
// backlog grows and arrival-to-completion p99 explodes. Same device,
// same file, same ops: only the harness structure differs, which is
// the paper's warning in one picture.
func figureOpenLoop(proto Protocol) error {
	fmt.Println("=== Open-loop figure: closed vs open arrivals across offered load ===")
	const workers = 16
	stack := proto.stack(fsbench.StackConfig{
		FS: "ext2", Device: "hdd", DiskBytes: 8 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
		CachePolicy: "lru", Scheduler: "ncq",
	})
	// Disk-bound 2 KB random reads saturate the disk at ~10^2 ops/s,
	// so fixed short durations keep every point cheap while still
	// completing thousands of ops; more runs would only tighten CIs
	// the figure does not plot.
	runs, dur, win := proto.Runs, 40*fsbench.Second, 20*fsbench.Second
	if runs > 3 {
		runs = 3
	}
	if proto.Tiny {
		dur, win = proto.Duration, proto.Window
	}
	mkExp := func(name string, w *fsbench.Workload) *fsbench.Experiment {
		return &fsbench.Experiment{
			Name:          name,
			Stack:         stack,
			Workload:      w,
			Runs:          runs,
			Duration:      dur,
			MeasureWindow: win,
			ColdCache:     true,
			Seed:          proto.Seed,
			Parallelism:   proto.Parallelism,
			Kinds:         []fsbench.OpKind{workload.OpReadRand},
			Recorder:      proto.Recorder,
		}
	}

	// Stage 1: the device's closed-loop saturation throughput — the
	// capacity the offered-load axis is normalized to.
	capRes, err := mkExp("openloop-capacity",
		fsbench.RandomRead(1<<30, 2<<10, workers)).Run()
	if err != nil {
		return err
	}
	capacity := capRes.Throughput.Mean
	fmt.Printf("closed-loop saturation: %.0f ops/s (%d unthrottled threads)\n\n", capacity, workers)

	// Stage 2: sweep offered load across the knee, closed and open.
	fracs := []float64{0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.3}
	if proto.Tiny {
		fracs = []float64{0.5, 1.3}
	}
	type point struct {
		frac, rate                  float64
		closedTP, closedP99ms       float64
		openTP, openP99ms           float64
		offered, completed, backlog int64
	}
	var pts []point
	for _, frac := range fracs {
		rateOffered := frac * capacity
		// Closed loop at the same intended rate: think time paces each
		// of the `workers` threads to rate/workers ops/s. Under load
		// the loop silently delivers less than intended — exactly the
		// self-throttling under test.
		closed := fsbench.RandomRead(1<<30, 2<<10, workers)
		closed.Name = "closedpaced"
		think := fsbench.Time(float64(workers) / rateOffered * float64(fsbench.Second))
		closed.Threads[0].Flowops = append(closed.Threads[0].Flowops,
			fsbench.Flowop{Kind: workload.OpThink, Think: think})
		open := fsbench.OpenLoopRead(1<<30, 2<<10, workers, rateOffered)
		exps := []*fsbench.Experiment{
			mkExp(fmt.Sprintf("closed-%.2fx", frac), closed),
			mkExp(fmt.Sprintf("open-%.2fx", frac), open),
		}
		runner := fsbench.Runner{Parallelism: proto.Parallelism, Progress: expProgress(exps)}
		results, err := runner.RunExperiments(exps)
		if err != nil {
			return err
		}
		cRes, oRes := results[0], results[1]
		pts = append(pts, point{
			frac: frac, rate: rateOffered,
			closedTP:    cRes.Throughput.Mean,
			closedP99ms: float64(cRes.Hist.Quantile(fsbench.P99)) / 1e6,
			openTP:      oRes.Throughput.Mean,
			openP99ms:   float64(oRes.Hist.Quantile(fsbench.P99)) / 1e6,
			offered:     oRes.Load.Offered,
			completed:   oRes.Load.Completed,
			backlog:     oRes.Load.BacklogPeak,
		})
	}

	t := &report.Table{
		Headers: []string{"offered", "rate/s", "closed ops/s", "closed p99 ms",
			"open ops/s", "open p99 ms", "open done %", "backlog peak"},
	}
	var rows [][]string
	xs := make([]float64, len(pts))
	closedP99s := make([]float64, len(pts))
	openP99s := make([]float64, len(pts))
	for i, p := range pts {
		doneFrac := 100 * float64(p.completed) / float64(p.offered)
		t.AddRow(
			fmt.Sprintf("%.2fx", p.frac),
			fmt.Sprintf("%.0f", p.rate),
			fmt.Sprintf("%.0f", p.closedTP),
			fmt.Sprintf("%.1f", p.closedP99ms),
			fmt.Sprintf("%.0f", p.openTP),
			fmt.Sprintf("%.1f", p.openP99ms),
			fmt.Sprintf("%.1f", doneFrac),
			fmt.Sprintf("%d", p.backlog),
		)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.frac),
			fmt.Sprintf("%.2f", p.rate),
			fmt.Sprintf("%.2f", p.closedTP),
			fmt.Sprintf("%.3f", p.closedP99ms),
			fmt.Sprintf("%.2f", p.openTP),
			fmt.Sprintf("%.3f", p.openP99ms),
			fmt.Sprintf("%d", p.offered),
			fmt.Sprintf("%d", p.completed),
			fmt.Sprintf("%d", p.backlog),
		})
		xs[i] = p.frac
		closedP99s[i] = p.closedP99ms
		openP99s[i] = p.openP99ms
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	first, last := pts[0], pts[len(pts)-1]
	fmt.Printf("\nbelow the knee (%.2fx): closed %.0f vs open %.0f ops/s — matched throughput, comparable tails\n",
		first.frac, first.closedTP, first.openTP)
	fmt.Printf("past the knee (%.2fx): closed p99 %.0f ms (self-throttled) vs open p99 %.0f ms (%.1fx) —\n",
		last.frac, last.closedP99ms, last.openP99ms, last.openP99ms/last.closedP99ms)
	fmt.Printf("same device, same ops; only the harness structure differs\n\n")
	chart := &report.Chart{
		Title:  "p99 latency (ms, log) vs offered load (c = closed, o = open)",
		XLabel: "offered load, fraction of closed-loop saturation",
		X:      xs,
		LogY:   true,
		Series: []report.ChartSeries{
			{Name: "closed", Y: closedP99s, Marker: 'c'},
			{Name: "open", Y: openP99s, Marker: 'o'},
		},
	}
	if _, err := chart.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return writeCSV(proto, "openloop.csv",
		[]string{"offered_frac", "rate_ops", "closed_ops", "closed_p99_ms",
			"open_ops", "open_p99_ms", "open_offered", "open_completed", "open_backlog_peak"},
		rows)
}

// figureTraceReplay records one open-loop workload trace and replays
// the same capture under every discipline: timed (faithful to the
// recorded arrivals), afap (closed loop, as fast as possible), and
// scaled ×{1..4} time compression. The point is the paper's replay
// complaint made concrete: compressing a trace's timing drives the
// stack past its knee — completion ratio falls below 1 and p99 blows
// up — while an afap replay of the very same operations reports no
// overload at all, because a closed loop cannot leave work unoffered.
//
// The figure ignores Protocol.Shards and ShardMode: its stack is one
// stack by construction. Trace replay runs on one stack, the capture
// records one, and a sharded capacity stage would anchor the capture
// rate to N replicas' capacity instead of that one stack's.
func figureTraceReplay(proto Protocol) error {
	fmt.Println("=== Trace-replay figure: one capture, three replay disciplines ===")
	const streams = 8
	stack := fsbench.StackConfig{
		FS: "ext2", Device: "hdd", DiskBytes: 8 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
		CachePolicy: "lru", Scheduler: "ncq",
	}
	runs, dur := proto.Runs, 40*fsbench.Second
	if runs > 3 {
		runs = 3
	}
	if proto.Tiny {
		dur = proto.Duration
	}
	mkExp := func(name string) *fsbench.Experiment {
		return &fsbench.Experiment{
			Name:          name,
			Stack:         stack,
			Runs:          runs,
			MeasureWindow: proto.Window,
			ColdCache:     true,
			Seed:          proto.Seed,
			Parallelism:   proto.Parallelism,
			Recorder:      proto.Recorder,
		}
	}

	// Stage 1: closed-loop saturation throughput — the capacity the
	// recorded rate is anchored to, so scaled replay crosses the knee
	// at a known compression factor.
	capExp := mkExp("tracereplay-capacity")
	capExp.Workload = fsbench.RandomRead(1<<30, 2<<10, streams)
	capExp.Duration = dur
	capExp.Kinds = []fsbench.OpKind{workload.OpReadRand}
	capRes, err := capExp.Run()
	if err != nil {
		return err
	}
	capacity := capRes.Throughput.Mean
	fmt.Printf("closed-loop saturation: %.0f ops/s (%d unthrottled streams)\n", capacity, streams)

	// Stage 2: capture at 0.45x capacity — comfortably below the knee,
	// so x2 compression approaches it and x3-x4 land past it.
	rate := 0.45 * capacity
	rec := fsbench.OpenLoopRead(1<<30, 2<<10, streams, rate)
	tr, err := fsbench.RecordWorkload(rec, stack, dur, proto.Seed)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath(proto, "tracereplay.fsbt"))
	if err != nil {
		return err
	}
	if err := tr.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	src := fsbench.TraceMemorySource(tr)
	info := &fsbench.TraceReplay{Tenants: []fsbench.TraceSource{src}}
	fmt.Printf("captured %d records over %d streams at %.0f ops/s (digest %.12s)\n\n",
		info.Records(), info.Workers(), rate, info.Digest())

	// Stage 3: replay the one capture under each discipline.
	type leg struct {
		name  string
		mode  fsbench.ReplayMode
		scale float64
	}
	legs := []leg{
		{"timed", fsbench.ReplayTimed, 1},
		{"afap", fsbench.ReplayAFAP, 1},
		{"scaled-x2", fsbench.ReplayScaled, 2},
		{"scaled-x3", fsbench.ReplayScaled, 3},
		{"scaled-x4", fsbench.ReplayScaled, 4},
	}
	t := &report.Table{
		Headers: []string{"discipline", "ops/s", "p99 ms", "done %", "backlog peak"},
	}
	var rows [][]string
	var xs, p99s []float64
	for _, l := range legs {
		exp := mkExp("tracereplay-" + l.name)
		exp.Trace = &fsbench.TraceReplay{
			Tenants: []fsbench.TraceSource{src},
			Mode:    l.mode,
			Scale:   l.scale,
			Name:    l.name,
		}
		res, err := exp.Run()
		if err != nil {
			return err
		}
		p99ms := float64(res.Hist.Quantile(fsbench.P99)) / 1e6
		// A closed loop never touches the load gauge: its completion
		// ratio is 1 by construction, which is exactly the number that
		// hides the knee.
		doneCol, doneCSV := "(closed)", "1.000"
		if res.Load.Offered > 0 {
			frac := res.Load.CompletionRatio()
			doneCol = fmt.Sprintf("%.1f", frac*100)
			doneCSV = fmt.Sprintf("%.3f", frac)
		}
		t.AddRow(l.name,
			fmt.Sprintf("%.0f", res.Throughput.Mean),
			fmt.Sprintf("%.1f", p99ms),
			doneCol,
			fmt.Sprintf("%d", res.Load.BacklogPeak))
		rows = append(rows, []string{
			l.name, l.mode.String(), fmt.Sprintf("%g", l.scale),
			fmt.Sprintf("%.2f", res.Throughput.Mean),
			fmt.Sprintf("%.3f", p99ms),
			fmt.Sprintf("%d", res.Load.Offered),
			fmt.Sprintf("%d", res.Load.Completed),
			doneCSV,
			fmt.Sprintf("%d", res.Load.BacklogPeak),
		})
		if l.mode != fsbench.ReplayAFAP {
			xs = append(xs, l.scale)
			p99s = append(p99s, p99ms)
		}
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nthe same operations, three timing stories: timed reproduces the capture,\n")
	fmt.Printf("scaled compression crosses the knee (done %% < 100, p99 blows up), and afap\n")
	fmt.Printf("cannot see overload at all — a closed loop leaves no load unoffered\n\n")
	chart := &report.Chart{
		Title:  "replay p99 latency (ms, log) vs time compression",
		XLabel: "trace time compression factor (timed = x1)",
		X:      xs,
		LogY:   true,
		Series: []report.ChartSeries{{Name: "scaled replay", Y: p99s, Marker: 's'}},
	}
	if _, err := chart.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return writeCSV(proto, "tracereplay.csv",
		[]string{"discipline", "mode", "scale", "ops_s", "p99_ms",
			"offered", "completed", "done_frac", "backlog_peak"},
		rows)
}

// table1 renders the survey table.
func table1(proto Protocol) error {
	fmt.Println("=== Table 1: Benchmarks Summary ===")
	if err := survey.Render(os.Stdout, survey.Table1()); err != nil {
		return err
	}
	fmt.Println()
	f, err := os.Create(outPath(proto, "table1.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return survey.RenderCSV(f, survey.Table1())
}
