package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
	"repro/internal/fs/ext3sim"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// A leg times one public function of one layer on a fixed input drawn
// from the seed. setup builds the input and returns the op loop, which
// runs n ops, and a release function; state carries over between
// samples, so every op must leave the input as it found it (or in an
// equivalent state).
type leg struct {
	name  string // metric name of the ns/op result
	setup func(seed uint64, small bool) (ops func(n int) error, release func(), err error)
}

// LegResult is one leg's measurement: medians over the samples.
type LegResult struct {
	Name        string
	NSPerOp     float64
	AllocsPerOp float64
}

// legSamples is the number of timed samples per leg; results are their
// medians.
const legSamples = 5

// RunLegs runs every leg and returns, in order, the ns/op legs and the
// two size measures (sim.proc_bytes, trace.bytes_per_rec). sample is
// the host time one sample aims for.
func RunLegs(seed uint64, small bool, sample time.Duration) ([]LegResult, map[string]float64, error) {
	procs := 10000
	if small {
		procs = 1000
	}
	// First, while the simulator's proc pool is still empty in a fresh
	// process, as it is when a rep starts.
	sizes := map[string]float64{
		"sim.proc_bytes":      procBytes(procs),
		"trace.bytes_per_rec": traceBytesPerRecord(seed),
	}
	var out []LegResult
	for _, l := range legs {
		ops, release, err := l.setup(seed, small)
		if err != nil {
			return nil, nil, fmt.Errorf("leg %s: %w", l.name, err)
		}
		r, err := timeLeg(ops, sample)
		release()
		if err != nil {
			return nil, nil, fmt.Errorf("leg %s: %w", l.name, err)
		}
		r.Name = l.name
		out = append(out, r)
	}
	return out, sizes, nil
}

// timeLeg sizes a sample to about target host time, then takes
// legSamples samples of ns/op and allocs/op.
func timeLeg(ops func(int) error, target time.Duration) (LegResult, error) {
	n := 1
	for {
		start := time.Now()
		if err := ops(n); err != nil {
			return LegResult{}, err
		}
		el := time.Since(start)
		if el >= target/4 || n >= 1<<26 {
			if el > 0 {
				n = max(1, int(float64(n)*float64(target)/float64(el)))
			}
			break
		}
		n *= 2
	}
	var ns, allocs []float64
	for i := 0; i < legSamples; i++ {
		before := readRuntime()
		start := time.Now()
		if err := ops(n); err != nil {
			return LegResult{}, err
		}
		el := time.Since(start)
		after := readRuntime()
		ns = append(ns, float64(el)/float64(n))
		allocs = append(allocs, float64(after.allocObjects-before.allocObjects)/float64(n))
	}
	return LegResult{NSPerOp: median(ns), AllocsPerOp: median(allocs)}, nil
}

func noRelease() {}

// nopTarget is an event that does nothing.
type nopTarget struct{}

func (nopTarget) RunEvent() {}

// unparkTarget is an event that resumes a parked proc.
type unparkTarget struct{ p *sim.Proc }

func (u unparkTarget) RunEvent() { u.p.Unpark() }

var legs = []leg{
	{"sim.schedule_step_ns", func(seed uint64, _ bool) (func(int) error, func(), error) {
		// ScheduleTarget + Step with 1,024 events pending.
		rng := sim.NewRNG(seed)
		l := sim.NewEventLoop(0)
		gaps := make([]sim.Time, 4096)
		for i := range gaps {
			gaps[i] = sim.Time(rng.Int63n(int64(sim.Millisecond)))
		}
		for i := 0; i < 1024; i++ {
			l.ScheduleTarget(gaps[i], nopTarget{})
		}
		k := 0
		return func(n int) error {
			for i := 0; i < n; i++ {
				l.ScheduleTarget(l.Now()+gaps[k&4095], nopTarget{})
				l.Step()
				k++
			}
			return nil
		}, noRelease, nil
	}},
	{"sim.park_unpark_ns", func(uint64, bool) (func(int) error, func(), error) {
		// One Park/Unpark round trip of a proc, driven by an event.
		l := sim.NewEventLoop(0)
		stop := false
		p := l.Go(0, func(p *sim.Proc) {
			for !stop {
				p.Park()
			}
		})
		l.Step() // run the proc to its first Park
		wake := unparkTarget{p}
		return func(n int) error {
				for i := 0; i < n; i++ {
					l.ScheduleTarget(l.Now(), wake)
					l.Step()
				}
				return nil
			}, func() {
				stop = true
				l.ScheduleTarget(l.Now(), wake)
				l.Run()
			}, nil
	}},
	{"vfs.read_hit_ns", func(seed uint64, _ bool) (func(int) error, func(), error) {
		// Mount.Read of a resident 2 KB block of a 16 MB file.
		return vfsLeg(seed, 16<<20, func(rng *sim.RNG) (int64, int64) {
			return rng.Int63n(16<<20/(2<<10)) * (2 << 10), 2 << 10
		}, false)
	}},
	{"vfs.write_cached_ns", func(seed uint64, _ bool) (func(int) error, func(), error) {
		// Mount.Write of 64 KB into a resident 4 MB file: it dirties at
		// most a tenth of the cache, below the write-back threshold.
		return vfsLeg(seed, 4<<20, func(rng *sim.RNG) (int64, int64) {
			return rng.Int63n(4<<20/(64<<10)) * (64 << 10), 64 << 10
		}, true)
	}},
	{"cache.lookup_hit_ns.lru", func(seed uint64, small bool) (func(int) error, func(), error) {
		return lookupLeg(seed, small, "lru")
	}},
	{"cache.lookup_hit_ns.arc", func(seed uint64, small bool) (func(int) error, func(), error) {
		return lookupLeg(seed, small, "arc")
	}},
	{"cache.insert_evict_ns.lru", func(seed uint64, small bool) (func(int) error, func(), error) {
		return insertLeg(seed, small, "lru")
	}},
	{"cache.insert_evict_ns.arc", func(seed uint64, small bool) (func(int) error, func(), error) {
		return insertLeg(seed, small, "arc")
	}},
	{"cache.writeback_cycle_ns", func(seed uint64, small bool) (func(int) error, func(), error) {
		// MarkDirty -> MarkWriteback -> EndWriteback on resident pages.
		c, ids, err := fullCache(seed, small, "lru")
		if err != nil {
			return nil, nil, err
		}
		k := 0
		return func(n int) error {
			for i := 0; i < n; i++ {
				id := ids[k%len(ids)]
				k++
				c.MarkDirty(id)
				gen, ok := c.MarkWriteback(id)
				if !ok {
					return fmt.Errorf("page %v not flushable", id)
				}
				c.EndWriteback(id, gen)
			}
			return nil
		}, noRelease, nil
	}},
	{"fs.create_remove_ns.ext3", func(uint64, bool) (func(int) error, func(), error) {
		// Create + Resize to 128 KB + Remove of one file.
		f, err := ext3sim.New((8<<30)/fs.BlockSize, ext3sim.Ordered)
		if err != nil {
			return nil, nil, err
		}
		root := f.Root()
		var now sim.Time
		return func(n int) error {
			for i := 0; i < n; i++ {
				now += sim.Microsecond
				ino, _, err := f.Create(root, "leg", fs.Regular, now)
				if err != nil {
					return err
				}
				if _, err := f.Resize(ino, 128<<10, now); err != nil {
					return err
				}
				if _, err := f.Remove(root, "leg", now); err != nil {
					return err
				}
			}
			return nil
		}, noRelease, nil
	}},
	{"fs.map_ns.ext2", func(seed uint64, small bool) (func(int) error, func(), error) {
		// Map of one random block of a 1 GB file.
		size := int64(1 << 30)
		if small {
			size = 64 << 20
		}
		f, err := ext2sim.New((8 << 30) / fs.BlockSize)
		if err != nil {
			return nil, nil, err
		}
		ino, _, err := f.Create(f.Root(), "leg", fs.Regular, 0)
		if err != nil {
			return nil, nil, err
		}
		if _, err := f.Resize(ino, size, 0); err != nil {
			return nil, nil, err
		}
		blocks := randomIndices(seed, 4096, size/fs.BlockSize)
		k := 0
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, _, err := f.Map(ino, blocks[k&4095], 1); err != nil {
					return err
				}
				k++
			}
			return nil
		}, noRelease, nil
	}},
	{"device.submit_ns.hdd", func(seed uint64, _ bool) (func(int) error, func(), error) {
		return submitLeg(seed, "hdd")
	}},
	{"device.submit_ns.ssd", func(seed uint64, _ bool) (func(int) error, func(), error) {
		return submitLeg(seed, "ssd")
	}},
	{"device.submit_ns.nvme", func(seed uint64, _ bool) (func(int) error, func(), error) {
		return submitLeg(seed, "nvme")
	}},
	{"device.queue_cycle_ns.ncq", func(seed uint64, _ bool) (func(int) error, func(), error) {
		return queueLeg(seed, device.SchedNCQ)
	}},
	{"device.queue_cycle_ns.elevator", func(seed uint64, _ bool) (func(int) error, func(), error) {
		return queueLeg(seed, device.SchedElevator)
	}},
	{"metrics.hist_record_ns", func(seed uint64, _ bool) (func(int) error, func(), error) {
		// Histogram.Record of latencies spread over the buckets.
		rng := sim.NewRNG(seed)
		lats := make([]sim.Time, 4096)
		for i := range lats {
			lats[i] = sim.Time(rng.LogNormal(11, 3))
		}
		h := &metrics.Histogram{}
		k := 0
		return func(n int) error {
			for i := 0; i < n; i++ {
				h.Record(lats[k&4095])
				k++
			}
			return nil
		}, noRelease, nil
	}},
	{"metrics.series_add_ns", func(uint64, bool) (func(int) error, func(), error) {
		// TimeSeries.Add of op completions 10 µs apart.
		ts := metrics.NewTimeSeries(10 * sim.Second)
		var t sim.Time
		return func(n int) error {
			for i := 0; i < n; i++ {
				t += 10 * sim.Microsecond
				ts.Add(t, 1)
			}
			return nil
		}, noRelease, nil
	}},
}

// randomIndices draws n indices in [0, bound).
func randomIndices(seed uint64, n int, bound int64) []int64 {
	rng := sim.NewRNG(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(bound)
	}
	return out
}

// vfsLeg builds the scaled stack in immediate mode, writes a file of
// size and syncs it, then reads or writes the extents pick draws.
func vfsLeg(seed uint64, size int64, pick func(*sim.RNG) (off, n int64), write bool) (func(int) error, func(), error) {
	stack := scaledStack()
	stack.OSReserveJitter = 0
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return nil, nil, err
	}
	fd, now, err := m.Create(0, "/leg")
	if err != nil {
		return nil, nil, err
	}
	if now, err = m.Write(now, fd, 0, size); err != nil {
		return nil, nil, err
	}
	if now, err = m.SyncAll(now); err != nil {
		return nil, nil, err
	}
	rng := sim.NewRNG(seed + 1)
	offs := make([][2]int64, 4096)
	for i := range offs {
		offs[i][0], offs[i][1] = pick(rng)
	}
	k := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			o := offs[k&4095]
			k++
			if write {
				if now, err = m.Write(now, fd, o[0], o[1]); err != nil {
					return err
				}
			} else if _, now, err = m.Read(now, fd, o[0], o[1]); err != nil {
				return err
			}
		}
		return nil
	}, noRelease, nil
}

// fullCache returns a cache of 64k pages (4k when small) filled with
// pages of 16 files, and the resident ids in a seeded random order.
func fullCache(seed uint64, small bool, policy string) (*cache.Cache, []cache.PageID, error) {
	pages := 1 << 16
	if small {
		pages = 1 << 12
	}
	pol, err := cache.NewPolicy(policy, sim.NewRNG(seed))
	if err != nil {
		return nil, nil, err
	}
	c := cache.New(pages, pol)
	ids := make([]cache.PageID, pages)
	for i := range ids {
		ids[i] = cache.PageID{File: uint64(i % 16), Index: int64(i / 16)}
		c.Insert(ids[i], false)
	}
	rng := sim.NewRNG(seed)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return c, ids, nil
}

func lookupLeg(seed uint64, small bool, policy string) (func(int) error, func(), error) {
	// Lookup of a resident page.
	c, ids, err := fullCache(seed, small, policy)
	if err != nil {
		return nil, nil, err
	}
	k := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			if !c.Lookup(ids[k%len(ids)]) {
				return fmt.Errorf("page %v not resident", ids[k%len(ids)])
			}
			k++
		}
		return nil
	}, noRelease, nil
}

func insertLeg(seed uint64, small bool, policy string) (func(int) error, func(), error) {
	// Insert of a new page into a full cache, which evicts one.
	c, _, err := fullCache(seed, small, policy)
	if err != nil {
		return nil, nil, err
	}
	next := int64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			c.Insert(cache.PageID{File: 1 << 20, Index: next}, false)
			next++
		}
		return nil
	}, noRelease, nil
}

// submitLeg submits random 4 KB reads to a device model back to back.
func submitLeg(seed uint64, model string) (func(int) error, func(), error) {
	stack := core.StackConfig{Device: model, DiskBytes: 8 << 30, RAMBytes: 64 << 20}
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return nil, nil, err
	}
	dev := m.Dev
	lbas := randomIndices(seed, 4096, dev.Sectors()/8-1)
	var at sim.Time
	k := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			done, err := dev.Submit(at, device.Request{Op: device.Read, LBA: lbas[k&4095] * 8, Sectors: 8, Owner: device.OwnerNone})
			if err != nil {
				return err
			}
			at = done
			k++
		}
		return nil
	}, noRelease, nil
}

// queueLeg keeps 1,000 random 4 KB reads outstanding on a depth-32
// queue in front of an HDD; one op is one event-loop step, which
// completes a request whose callback submits the next.
func queueLeg(seed uint64, sched string) (func(int) error, func(), error) {
	stack := core.StackConfig{Device: "hdd", DiskBytes: 8 << 30, RAMBytes: 64 << 20}
	m, err := stack.Build(sim.NewRNG(seed))
	if err != nil {
		return nil, nil, err
	}
	s, err := device.NewScheduler(sched)
	if err != nil {
		return nil, nil, err
	}
	l := sim.NewEventLoop(0)
	q := device.NewQueue(m.Dev, s, 32, l)
	lbas := randomIndices(seed, 4096, m.Dev.Sectors()/8-1)
	k := 0
	var runErr error
	var done func(sim.Time, error)
	submit := func() {
		q.Submit(l.Now(), device.Request{Op: device.Read, LBA: lbas[k&4095] * 8, Sectors: 8, Owner: device.OwnerNone}, done)
		k++
	}
	done = func(_ sim.Time, err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
		submit()
	}
	for i := 0; i < 1000; i++ {
		submit()
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			l.Step()
		}
		return runErr
	}, noRelease, nil
}

// procBytes reports the heap and stack bytes held per parked proc, with
// n procs parked at once. It is one sample: later spawns would reuse
// the goroutines the simulator pools, which a fresh rep never has.
func procBytes(n int) float64 {
	l := sim.NewEventLoop(0)
	procs := make([]*sim.Proc, n)
	before := liveBytes()
	for i := range procs {
		procs[i] = l.Go(0, func(p *sim.Proc) { p.Park() })
	}
	l.Run() // every proc runs to its Park
	after := liveBytes()
	for _, p := range procs {
		l.ScheduleTarget(0, unparkTarget{p})
	}
	l.Run()
	return float64(after-before) / float64(n)
}

// liveBytes is live heap plus in-use goroutine stacks after a GC.
func liveBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc + ms.StackInuse
}

// traceBytesPerRecord encodes the replay trace's shape and reports its
// FSBT v2 size per record.
func traceBytesPerRecord(seed uint64) float64 {
	var cw countingWriter
	const records = 1 << 16
	if err := encodeTrace(&cw, records, seed); err != nil {
		panic(fmt.Sprintf("bench: encoding to a counter: %v", err))
	}
	return float64(cw) / records
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
