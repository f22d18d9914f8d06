// Package nano implements the paper's §4 proposal: "a file system
// benchmark should be a suite of nano-benchmarks where each
// individual test measures a particular aspect of file system
// performance and measures it well", covering at minimum in-memory,
// disk-layout, cache warm-up/eviction, and meta-data performance.
//
// Each nano-benchmark pins one dimension by construction: the
// in-memory test's working set always fits, the layout tests always
// run cold, the eviction test's working set exceeds the cache by a
// fixed ratio, and the meta-data tests move no data. Contrast with
// Table 1, where almost every surveyed tool smears several dimensions
// together.
package nano

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Score is one nano-benchmark's result.
type Score struct {
	Name      string
	Dimension core.Dimension
	Value     float64
	Unit      string
	// Detail carries secondary observations (hit ratios, seek
	// counts) that explain the primary number.
	Detail map[string]float64
}

// String renders "name: value unit".
func (s Score) String() string {
	return fmt.Sprintf("%-18s [%-9s] %12.1f %s", s.Name, s.Dimension, s.Value, s.Unit)
}

// Benchmark is one nano-benchmark.
type Benchmark struct {
	Name      string
	Dimension core.Dimension
	// Run builds its own fresh stack from the config so no state
	// leaks between nano-benchmarks.
	Run func(stack core.StackConfig, seed uint64) (Score, error)
}

// Suite is an ordered set of nano-benchmarks.
type Suite struct {
	Benchmarks []Benchmark
	// Parallelism bounds how many benchmarks run concurrently; <= 0
	// means GOMAXPROCS. Each benchmark builds its own stack, so scores
	// are bit-identical at any setting.
	Parallelism int
}

// RunAll executes the suite against a stack configuration, fanning
// benchmarks across a worker pool sized by Parallelism. Scores come
// back in suite order regardless of completion order.
func (s *Suite) RunAll(stack core.StackConfig, seed uint64) ([]Score, error) {
	out := make([]Score, len(s.Benchmarks))
	err := par.ForEach(len(s.Benchmarks), s.Parallelism, func(i int) error {
		b := s.Benchmarks[i]
		sc, err := b.Run(stack, seed)
		if err != nil {
			return fmt.Errorf("nano %s: %w", b.Name, err)
		}
		sc.Name = b.Name
		sc.Dimension = b.Dimension
		out[i] = sc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultSuite returns the paper's minimum suite plus scaling.
func DefaultSuite() *Suite {
	return &Suite{Benchmarks: []Benchmark{
		{Name: "io-seq-bw", Dimension: core.DimIO, Run: ioSeqBandwidth},
		{Name: "io-rand-iops", Dimension: core.DimIO, Run: ioRandIOPS},
		{Name: "mem-read", Dimension: core.DimCaching, Run: memRead},
		{Name: "layout-seq-read", Dimension: core.DimOnDisk, Run: layoutSeqRead},
		{Name: "layout-rand-read", Dimension: core.DimOnDisk, Run: layoutRandRead},
		{Name: "layout-aged", Dimension: core.DimOnDisk, Run: layoutAged},
		{Name: "cache-warmup", Dimension: core.DimCaching, Run: cacheWarmup},
		{Name: "cache-eviction", Dimension: core.DimCaching, Run: cacheEviction},
		{Name: "meta-create", Dimension: core.DimMetaData, Run: metaCreate},
		{Name: "meta-stat", Dimension: core.DimMetaData, Run: metaStat},
		{Name: "meta-delete", Dimension: core.DimMetaData, Run: metaDelete},
		{Name: "scale-threads", Dimension: core.DimScaling, Run: scaleThreads},
	}}
}

// --- I/O dimension: the raw device, no file system ------------------

func buildDevice(stack core.StackConfig, seed uint64) (device.Device, error) {
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return m.Dev, nil
}

func ioSeqBandwidth(stack core.StackConfig, seed uint64) (Score, error) {
	dev, err := buildDevice(stack, seed)
	if err != nil {
		return Score{}, err
	}
	const reqSectors = 256 // 128 KB requests
	var at sim.Time
	var lba, bytes int64
	for at < 2*sim.Second {
		done, err := dev.Submit(at, device.Request{Op: device.Read, LBA: lba, Sectors: reqSectors, Owner: device.OwnerNone})
		if err != nil {
			return Score{}, err
		}
		at = done
		lba += reqSectors
		bytes += reqSectors * device.SectorSize
	}
	return Score{
		Value: float64(bytes) / at.Seconds() / 1e6,
		Unit:  "MB/s sequential read",
	}, nil
}

func ioRandIOPS(stack core.StackConfig, seed uint64) (Score, error) {
	dev, err := buildDevice(stack, seed)
	if err != nil {
		return Score{}, err
	}
	rng := sim.NewRNG(seed + 1)
	var at sim.Time
	var ops int64
	for at < 2*sim.Second {
		lba := rng.Int63n(dev.Sectors() - 8)
		done, err := dev.Submit(at, device.Request{Op: device.Read, LBA: lba, Sectors: 8, Owner: device.OwnerNone})
		if err != nil {
			return Score{}, err
		}
		at = done
		ops++
	}
	return Score{
		Value: float64(ops) / at.Seconds(),
		Unit:  "IOPS random 4K read",
	}, nil
}

// --- helpers over a mounted stack ------------------------------------

// mountWithFile builds the stack and creates one file of size bytes,
// synced and optionally evicted from cache.
func mountWithFile(stack core.StackConfig, seed uint64, size int64, cold bool) (*vfs.Mount, *vfs.FD, sim.Time, error) {
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return nil, nil, 0, err
	}
	fd, now, err := m.Create(0, "/nano-data")
	if err != nil {
		return nil, nil, 0, err
	}
	if size > 0 {
		if now, err = m.Write(now, fd, 0, size); err != nil {
			return nil, nil, 0, err
		}
	}
	if now, err = m.SyncAll(now); err != nil {
		return nil, nil, 0, err
	}
	if cold {
		m.DropCaches()
	}
	m.ResetStats()
	return m, fd, now, nil
}

// --- caching dimension ------------------------------------------------

// memRead measures pure in-memory random reads: working set 1/8 of
// cache, pre-warmed. "Predominantly a function of the memory system",
// as the paper puts it — which is exactly what this isolates.
func memRead(stack core.StackConfig, seed uint64) (Score, error) {
	size := stack.CacheBytesMean() / 8
	m, fd, now, err := mountWithFile(stack, seed, size, false)
	if err != nil {
		return Score{}, err
	}
	rng := sim.NewRNG(seed + 2)
	start := now
	var ops int64
	for now < start+2*sim.Second {
		off := rng.Int63n(size/2048) * 2048
		_, done, err := m.Read(now, fd, off, 2048)
		if err != nil {
			return Score{}, err
		}
		now = done
		ops++
	}
	hr := m.PC.L1.Stats().HitRatio()
	return Score{
		Value:  float64(ops) / (now - start).Seconds(),
		Unit:   "ops/s in-memory 2K random read",
		Detail: map[string]float64{"hit_ratio": hr},
	}, nil
}

// cacheWarmup measures how long random reads take to bring a
// cache-fitting file to a 90% running hit ratio — Figure 2's ramp
// reduced to a number (plus the curve in Detail).
func cacheWarmup(stack core.StackConfig, seed uint64) (Score, error) {
	size := stack.CacheBytesMean() / 2
	m, fd, now, err := mountWithFile(stack, seed, size, true)
	if err != nil {
		return Score{}, err
	}
	rng := sim.NewRNG(seed + 3)
	start := now
	var ops, hits int64
	const window = 2000
	var recent [window]bool
	deadline := start + 30*sim.Minute
	for now < deadline {
		off := rng.Int63n(size/4096) * 4096
		id := fs.DataPage(fd.Ino, off/4096)
		wasHit := m.PC.Contains(id)
		_, done, err := m.Read(now, fd, off, 2048)
		if err != nil {
			return Score{}, err
		}
		now = done
		slot := ops % window
		if recent[slot] {
			hits--
		}
		recent[slot] = wasHit
		if wasHit {
			hits++
		}
		ops++
		if ops >= window && float64(hits)/window >= 0.9 {
			break
		}
	}
	return Score{
		Value:  (now - start).Seconds(),
		Unit:   "s to 90% hit ratio (cold start)",
		Detail: map[string]float64{"ops": float64(ops)},
	}, nil
}

// cacheEviction fixes the working set at 2x the cache and reports the
// steady-state hit ratio — higher means the eviction policy retains
// the right pages (under uniform random access every policy
// converges to ~0.5; Zipf access separates them).
func cacheEviction(stack core.StackConfig, seed uint64) (Score, error) {
	size := stack.CacheBytesMean() * 2
	m, fd, now, err := mountWithFile(stack, seed, size, true)
	if err != nil {
		return Score{}, err
	}
	rng := sim.NewRNG(seed + 4)
	zipf := sim.NewZipf(rng, size/4096, 1.05)
	// Warm phase.
	for i := 0; i < 40000; i++ {
		off := zipf.Next() * 4096
		_, done, err := m.Read(now, fd, off, 2048)
		if err != nil {
			return Score{}, err
		}
		now = done
	}
	m.PC.L1.ResetStats()
	for i := 0; i < 20000; i++ {
		off := zipf.Next() * 4096
		_, done, err := m.Read(now, fd, off, 2048)
		if err != nil {
			return Score{}, err
		}
		now = done
	}
	st := m.PC.L1.Stats()
	return Score{
		Value: st.HitRatio() * 100,
		Unit:  fmt.Sprintf("%% hit ratio, Zipf working set 2x cache (%s)", m.PC.L1.Policy().Name()),
	}, nil
}

// --- on-disk layout dimension ----------------------------------------

func layoutSeqRead(stack core.StackConfig, seed uint64) (Score, error) {
	const size = 256 << 20
	m, fd, now, err := mountWithFile(stack, seed, size, true)
	if err != nil {
		return Score{}, err
	}
	start := now
	var bytes int64
	for off := int64(0); off < size; off += 128 << 10 {
		n, done, err := m.Read(now, fd, off, 128<<10)
		if err != nil {
			return Score{}, err
		}
		now = done
		bytes += n
	}
	return Score{
		Value:  float64(bytes) / (now - start).Seconds() / 1e6,
		Unit:   "MB/s cold sequential file read",
		Detail: map[string]float64{"prefetch_hits": float64(m.PC.L1.Stats().PrefetchHits)},
	}, nil
}

func layoutRandRead(stack core.StackConfig, seed uint64) (Score, error) {
	const size = 256 << 20
	m, fd, now, err := mountWithFile(stack, seed, size, true)
	if err != nil {
		return Score{}, err
	}
	rng := sim.NewRNG(seed + 5)
	start := now
	var ops int64
	for now < start+5*sim.Second {
		off := rng.Int63n(size/4096) * 4096
		_, done, err := m.Read(now, fd, off, 2048)
		if err != nil {
			return Score{}, err
		}
		now = done
		ops++
	}
	seeks := m.Dev.Stats().Seeks
	return Score{
		Value:  float64(ops) / (now - start).Seconds(),
		Unit:   "ops/s cold 2K random read",
		Detail: map[string]float64{"seeks": float64(seeks)},
	}, nil
}

// layoutAged ages the file system with create/delete churn, then
// measures cold sequential read of a file allocated into the aged
// free space. The score is the aged bandwidth; Detail carries the
// device seeks the read took.
func layoutAged(stack core.StackConfig, seed uint64) (Score, error) {
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return Score{}, err
	}
	// Age: create 400 small files, delete every other one, repeat.
	now := sim.Time(0)
	for round := 0; round < 4; round++ {
		for i := 0; i < 100; i++ {
			path := fmt.Sprintf("/age-%d-%d", round, i)
			fd, done, err := m.Create(now, path)
			if err != nil {
				return Score{}, err
			}
			now = done
			if now, err = m.Write(now, fd, 0, 512<<10); err != nil {
				return Score{}, err
			}
		}
		for i := 0; i < 100; i += 2 {
			done, err := m.Unlink(now, fmt.Sprintf("/age-%d-%d", round, i))
			if err != nil {
				return Score{}, err
			}
			now = done
		}
	}
	// Allocate the victim file into the fragmented free space.
	const size = 64 << 20
	fd, now, err := m.Create(now, "/aged-victim")
	if err != nil {
		return Score{}, err
	}
	if now, err = m.Write(now, fd, 0, size); err != nil {
		return Score{}, err
	}
	if now, err = m.SyncAll(now); err != nil {
		return Score{}, err
	}
	m.DropCaches()
	m.ResetStats()
	start := now
	var bytes int64
	for off := int64(0); off < size; off += 128 << 10 {
		n, done, err := m.Read(now, fd, off, 128<<10)
		if err != nil {
			return Score{}, err
		}
		now = done
		bytes += n
	}
	return Score{
		Value:  float64(bytes) / (now - start).Seconds() / 1e6,
		Unit:   "MB/s cold sequential read after aging",
		Detail: map[string]float64{"seeks": float64(m.Dev.Stats().Seeks)},
	}, nil
}

// --- meta-data dimension ----------------------------------------------

func metaCreate(stack core.StackConfig, seed uint64) (Score, error) {
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return Score{}, err
	}
	var now sim.Time
	start := now
	const n = 20000
	for i := 0; i < n; i++ {
		_, done, err := m.Create(now, fmt.Sprintf("/c-%06d", i))
		if err != nil {
			return Score{}, err
		}
		now = done
	}
	return Score{
		Value: n / (now - start).Seconds(),
		Unit:  "creates/s (0-byte files)",
	}, nil
}

func metaStat(stack core.StackConfig, seed uint64) (Score, error) {
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return Score{}, err
	}
	var now sim.Time
	const n = 5000
	for i := 0; i < n; i++ {
		_, done, err := m.Create(now, fmt.Sprintf("/s-%06d", i))
		if err != nil {
			return Score{}, err
		}
		now = done
	}
	rng := sim.NewRNG(seed + 6)
	start := now
	const stats = 50000
	for i := 0; i < stats; i++ {
		_, done, err := m.Stat(now, fmt.Sprintf("/s-%06d", rng.Intn(n)))
		if err != nil {
			return Score{}, err
		}
		now = done
	}
	return Score{
		Value: stats / (now - start).Seconds(),
		Unit:  "stats/s (warm dentry cache)",
	}, nil
}

func metaDelete(stack core.StackConfig, seed uint64) (Score, error) {
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return Score{}, err
	}
	var now sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		_, done, err := m.Create(now, fmt.Sprintf("/d-%06d", i))
		if err != nil {
			return Score{}, err
		}
		now = done
	}
	start := now
	for i := 0; i < n; i++ {
		done, err := m.Unlink(now, fmt.Sprintf("/d-%06d", i))
		if err != nil {
			return Score{}, err
		}
		now = done
	}
	return Score{
		Value: n / (now - start).Seconds(),
		Unit:  "deletes/s",
	}, nil
}

// --- scaling dimension --------------------------------------------------

// scaleThreads reports throughput at 8 threads over throughput at 1
// thread for a disk-bound random read — 8.0 means perfect scaling,
// ~1.0 means full serialization on the device.
func scaleThreads(stack core.StackConfig, seed uint64) (Score, error) {
	run := func(threads int) (float64, error) {
		exp := &core.Experiment{
			Name:     fmt.Sprintf("scale-%d", threads),
			Stack:    stack,
			Workload: workload.RandomRead(4*stack.CacheBytesMean(), 2<<10, threads),
			Runs:     1, Duration: 10 * sim.Second,
			Seed: seed,
		}
		res, err := exp.Run()
		if err != nil {
			return 0, err
		}
		return res.Throughput.Mean, nil
	}
	one, err := run(1)
	if err != nil {
		return Score{}, err
	}
	eight, err := run(8)
	if err != nil {
		return Score{}, err
	}
	ratio := 0.0
	if one > 0 {
		ratio = eight / one
	}
	return Score{
		Value:  ratio,
		Unit:   "8-thread / 1-thread disk-bound speedup",
		Detail: map[string]float64{"t1_ops": one, "t8_ops": eight},
	}, nil
}
