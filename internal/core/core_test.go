package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestClassifyRandomReadSmall(t *testing.T) {
	// 64 MB file in a ~410 MB cache: an in-memory caching benchmark.
	w := workload.RandomRead(64<<20, 2048, 1)
	cov := ClassifyWorkload(w, 410<<20)
	if cov[DimCaching] != Isolates {
		t.Errorf("small random read: caching = %v, want isolates", cov[DimCaching])
	}
	if cov[DimOnDisk] == Isolates {
		t.Error("small random read misclassified as on-disk")
	}
}

func TestClassifyRandomReadHuge(t *testing.T) {
	// 25 GB file: on-disk benchmark.
	w := workload.RandomRead(25<<30, 2048, 1)
	cov := ClassifyWorkload(w, 410<<20)
	if cov[DimOnDisk] != Isolates {
		t.Errorf("huge random read: on-disk = %v, want isolates", cov[DimOnDisk])
	}
}

func TestClassifyTransitionRegion(t *testing.T) {
	// File ≈ cache: the fragile middle touches several dimensions and
	// isolates none.
	w := workload.RandomRead(410<<20, 2048, 1)
	cov := ClassifyWorkload(w, 410<<20)
	for _, d := range []Dimension{DimOnDisk, DimCaching, DimIO} {
		if cov[d] != Touches {
			t.Errorf("transition workload: %v = %v, want touches", d, cov[d])
		}
	}
}

func TestClassifyMetadata(t *testing.T) {
	w := workload.CreateDelete(8<<10, 1)
	cov := ClassifyWorkload(w, 410<<20)
	if cov[DimMetaData] == NotCovered {
		t.Error("create/delete workload: metadata not covered")
	}
}

func TestClassifyScaling(t *testing.T) {
	w := workload.RandomRead(64<<20, 2048, 16)
	if cov := ClassifyWorkload(w, 410<<20); cov[DimScaling] != Isolates {
		t.Errorf("16-thread workload: scaling = %v", cov[DimScaling])
	}
	w1 := workload.RandomRead(64<<20, 2048, 1)
	if cov := ClassifyWorkload(w1, 410<<20); cov[DimScaling] != NotCovered {
		t.Errorf("1-thread workload: scaling = %v", cov[DimScaling])
	}
}

func TestStackConfigBuild(t *testing.T) {
	for _, fsName := range []string{"ext2", "ext3", "xfs"} {
		for _, dev := range []string{"hdd", "ssd", "ramdisk"} {
			cfg := PaperStack()
			cfg.FS = fsName
			cfg.Device = dev
			cfg.DiskBytes = 4 << 30
			m, err := cfg.Build(sim.NewRNG(1))
			if err != nil {
				t.Fatalf("%s/%s: %v", fsName, dev, err)
			}
			if m.FS.Name() != fsName {
				t.Errorf("built %s, want %s", m.FS.Name(), fsName)
			}
		}
	}
	bad := PaperStack()
	bad.FS = "zfs"
	if _, err := bad.Build(sim.NewRNG(1)); err == nil {
		t.Error("unknown fs accepted")
	}
	bad = PaperStack()
	bad.Device = "tape"
	if _, err := bad.Build(sim.NewRNG(1)); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestStackConfigRejectsUnknownReadahead(t *testing.T) {
	for _, name := range []string{"adaptve", "fixed:16", "bogus"} {
		t.Run(name, func(t *testing.T) {
			stack := PaperStack()
			stack.Readahead = name
			_, err := stack.Build(sim.NewRNG(1))
			if err == nil {
				t.Fatalf("readahead %q accepted", name)
			}
			for _, want := range append([]string{strconv.Quote(name)}, cache.ReadaheadNames()...) {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}

func TestOSReserveJitterVariesCache(t *testing.T) {
	cfg := PaperStack()
	cfg.DiskBytes = 4 << 30
	sizes := map[int]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		m, err := cfg.Build(sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		sizes[m.PC.L1.Capacity()] = true
	}
	if len(sizes) < 2 {
		t.Error("OS reserve jitter produced identical cache sizes across seeds")
	}
	// Jitter off: always identical.
	cfg.OSReserveJitter = 0
	first := -1
	for seed := uint64(0); seed < 4; seed++ {
		m, _ := cfg.Build(sim.NewRNG(seed))
		if first == -1 {
			first = m.PC.L1.Capacity()
		} else if m.PC.L1.Capacity() != first {
			t.Error("zero jitter still varied the cache size")
		}
	}
}

// smallStack returns a fast-to-build stack for experiment tests:
// 64 MB RAM on a 4 GB disk.
func smallStack() StackConfig {
	return StackConfig{
		FS: "ext2", Device: "hdd", DiskBytes: 4 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20, OSReserveJitter: 1 << 20,
		CachePolicy: "lru",
	}
}

func TestExperimentMemoryVsDiskBound(t *testing.T) {
	// ~51 MB cache. A 16 MB file is memory-bound; a 200 MB file is
	// disk-bound; the gap must be large.
	run := func(fileSize int64) *Result {
		exp := &Experiment{
			Name:     "t",
			Stack:    smallStack(),
			Workload: workload.RandomRead(fileSize, 2048, 1),
			Runs:     3, Duration: 20 * sim.Second, MeasureWindow: 10 * sim.Second,
			Seed: 77,
		}
		res, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mem := run(16 << 20)
	disk := run(200 << 20)
	if mem.Throughput.Mean < 5*disk.Throughput.Mean {
		t.Errorf("memory-bound %.0f ops/s not ≫ disk-bound %.0f ops/s",
			mem.Throughput.Mean, disk.Throughput.Mean)
	}
	// Memory-bound plateau: ~10k ops/s with the Filebench-calibrated
	// overhead (the paper's 9,682).
	if mem.Throughput.Mean < 6000 || mem.Throughput.Mean > 14000 {
		t.Errorf("memory plateau %.0f ops/s, want ~10k", mem.Throughput.Mean)
	}
	// Variance structure: disk-bound RSD exceeds memory-bound RSD.
	if disk.Throughput.RSD < mem.Throughput.RSD {
		t.Errorf("disk RSD %.4f < memory RSD %.4f; paper says disk is noisier",
			disk.Throughput.RSD, mem.Throughput.RSD)
	}
	if mem.Flags.Bimodal {
		t.Error("pure memory-bound run flagged bimodal")
	}
}

func TestExperimentBimodalDetection(t *testing.T) {
	// File ≈ 2x cache: roughly half hits half misses — Figure 3(b).
	exp := &Experiment{
		Name:     "bimodal",
		Stack:    smallStack(),
		Workload: workload.RandomRead(100<<20, 2048, 1),
		Runs:     2, Duration: 20 * sim.Second, MeasureWindow: 10 * sim.Second,
		Seed: 5,
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flags.Bimodal {
		t.Errorf("half-cached workload not flagged bimodal; modes=%v", res.Hist.Modes(0.05))
	}
}

func TestExperimentColdCacheWarmup(t *testing.T) {
	// Cold cache on a file that fits: the time series must show a
	// rising (non-stationary) curve — Figure 2's shape.
	exp := &Experiment{
		Name:     "warmup",
		Stack:    smallStack(),
		Workload: workload.RandomRead(40<<20, 2048, 1),
		Runs:     1, Duration: 120 * sim.Second,
		ColdCache:      true,
		Seed:           9,
		SeriesInterval: 2 * sim.Second,
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	rates := res.PerRun[0].Series.Rates()
	if len(rates) < 10 {
		t.Fatalf("series too short: %d buckets", len(rates))
	}
	early := rates[1]
	late := rates[len(rates)-2]
	if late < 5*early {
		t.Errorf("no warm-up ramp: early %.0f ops/s, late %.0f ops/s", early, late)
	}
}

func TestSweepFindsCliff(t *testing.T) {
	// Mini Figure 1: sweep file size across the ~51 MB cache boundary
	// and expect the fragility detector to fire inside it.
	stack := smallStack()
	sizes := []int64{16 << 20, 32 << 20, 44 << 20, 52 << 20, 60 << 20, 96 << 20, 160 << 20}
	sweep := FileSizeSweep(stack, sizes, 4, 20*sim.Second, 10*sim.Second, 123)
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(sizes) {
		t.Fatalf("points = %d", len(res.Points))
	}
	first := res.Points[0].Result.Throughput.Mean
	last := res.Points[len(res.Points)-1].Result.Throughput.Mean
	if first < 5*last {
		t.Errorf("no cliff: %.0f → %.0f ops/s across the sweep", first, last)
	}
	frag := res.Fragility(0.10)
	if !frag.Found {
		// The cliff may be sharp enough that no sampled point sits in
		// the fragile zone; at minimum the ratio must be large.
		t.Logf("fragility: %v", frag)
	}
	if frag.MaxAdjacentRatio < 3 && first >= 5*last {
		t.Errorf("max adjacent ratio %.1f, want >= 3 across the cliff", frag.MaxAdjacentRatio)
	}
}

func TestCompareGates(t *testing.T) {
	mk := func(fsName string, seed uint64) *Result {
		stack := smallStack()
		stack.FS = fsName
		exp := &Experiment{
			Name:     fsName,
			Stack:    stack,
			Workload: workload.RandomRead(200<<20, 2048, 1),
			Runs:     4, Duration: 20 * sim.Second, MeasureWindow: 10 * sim.Second,
			Seed: seed,
		}
		res, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := mk("ext2", 1)
	b := mk("ext2", 100) // same system, different seeds
	cmp := Compare(a, b, 0.05)
	if cmp.Verdict == AWins || cmp.Verdict == BWins {
		t.Errorf("same system declared different: %v", cmp)
	}
	// xfs's contiguous layout should beat ext2's on disk-bound random
	// reads, or at least not produce an Unreliable verdict.
	x := mk("xfs", 1)
	cmp2 := Compare(x, a, 0.05)
	if cmp2.Verdict == Unreliable {
		t.Errorf("steady-state comparison unreliable: %v", cmp2)
	}
	if cmp2.SpeedupAB == 0 {
		t.Error("speedup not computed")
	}
}

func TestDimensionStrings(t *testing.T) {
	if DimIO.String() != "io" || DimMetaData.String() != "meta-data" {
		t.Error("dimension names wrong")
	}
	if Isolates.String() != "•" || Touches.String() != "◦" || NotCovered.String() != " " {
		t.Error("coverage markers wrong")
	}
	if len(AllDimensions()) != 5 {
		t.Error("not five dimensions")
	}
}

func TestExperimentValidation(t *testing.T) {
	exp := &Experiment{Name: "x", Stack: smallStack(),
		Workload: workload.RandomRead(1<<20, 2048, 1)}
	if _, err := exp.Run(); err == nil {
		t.Error("zero-duration experiment ran")
	}
}
