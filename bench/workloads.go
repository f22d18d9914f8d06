// Package bench measures what the simulator costs to run — host time,
// memory and allocation — while holding what it simulates fixed. Every
// repetition of a workload at one seed does bit-identical simulated
// work, which the checks in this package verify through a digest of
// the simulated statistics; the host-side metrics are then comparable
// across commits of the simulator.
//
// The package drives the stack the way core.Experiment does and
// observes each layer from outside: it times calls into public
// functions and wraps the public interfaces, and it edits nothing in
// the simulator.
package bench

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload is one benchmark input: a stack, the load run on it, and
// the simulated facts its checks rely on.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists: the layers it
	// stresses and the ones it leaves idle.
	Why   string
	Stack core.StackConfig
	// Load is the synthetic workload; nil for a trace replay.
	Load *workload.Workload
	// TraceRecords, when positive, makes the workload a timed replay of
	// a generated trace with this many records (see WriteTrace).
	TraceRecords int
	// Duration is the virtual length of Run.
	Duration sim.Time
	// Cold drops the caches after Setup.
	Cold bool
	// check holds the workload's own invariants over a rep's simulated
	// statistics.
	check func(*Stats) error
}

// scaledStack is the paper's testbed at 1/8 memory: 64 MB RAM and a
// 13 MB OS reserve leave about 51 MB of page cache, small enough that
// a rep's set-up stays subsecond.
func scaledStack() core.StackConfig {
	return core.StackConfig{
		FS: "ext2", Device: "hdd", DiskBytes: 8 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20, OSReserveJitter: 1 << 20,
		CachePolicy: "lru",
	}
}

// Workloads returns the five benchmark workloads. small shrinks every
// one to a size the race detector runs in seconds, keeping each
// workload's character (and so its invariants).
func Workloads(small bool) []*Workload {
	pick := func(full, tiny int64) int64 {
		if small {
			return tiny
		}
		return full
	}

	cached := &Workload{
		Name: "cached-read",
		Why:  "every read hits the page cache: vfs read path, cache lookup, metrics and kernel; device, write-back and trace idle",
		// The paper's testbed (~410 MB cache) and the left plateau of
		// its Figure 1: a 256 MB file read warm.
		Stack:    core.PaperStack(),
		Load:     workload.RandomRead(pick(256<<20, 8<<20), 2<<10, 1),
		Duration: sim.Time(pick(int64(60*sim.Second), int64(sim.Second))),
		check: func(s *Stats) error {
			if s.Device.Reads != 0 {
				return fmt.Errorf("%d device reads during a warm cached run", s.Device.Reads)
			}
			if s.Cache.HitRatio() < 0.99 {
				return fmt.Errorf("hit ratio %.4f < 0.99", s.Cache.HitRatio())
			}
			return nil
		},
	}

	missStack := scaledStack()
	missStack.Device, missStack.NVMeChannels = "nvme", 4
	missStack.Scheduler, missStack.QueueDepth = "ncq", 32
	miss := &Workload{
		Name:     "miss-read",
		Why:      "nearly every data page misses: cache insert and evict, the NVMe model, queue dispatch and proc park/unpark",
		Stack:    missStack,
		Load:     workload.RandomRead(pick(1<<30, 64<<20), 4<<10, 16),
		Duration: sim.Time(pick(int64(6*sim.Second), int64(300*sim.Millisecond))),
		Cold:     true,
		check: func(s *Stats) error {
			if s.Cache.Evictions == 0 {
				return fmt.Errorf("no evictions on a file larger than the cache")
			}
			return nil
		},
	}

	writeStack := scaledStack()
	writeStack.FS, writeStack.Device = "ext3", "ssd"
	// One thread: with several, a delete can race another thread's open
	// file and the engine counts a benign failed op.
	fileServer := workload.FileServer(int(pick(1000, 100)), 128<<10, 1)
	// Every file exactly 128 KB: with the personality's heavy-tailed
	// sizes, a whole-file read's cost follows the sizes one seed draws,
	// and allocation per op varied 5% from seed to seed.
	fileServer.FileSets[0].ParetoAlpha = 0
	write := &Workload{
		Name:     "write-mix",
		Why:      "creates, appends, whole-file reads, stats and deletes: fs metadata, journal, allocator, dirty tracking and write-back",
		Stack:    writeStack,
		Load:     fileServer,
		Duration: sim.Time(pick(int64(100*sim.Second), int64(600*sim.Millisecond))),
		check: func(s *Stats) error {
			if s.VFS.WritebackPages == 0 {
				return fmt.Errorf("no write-back pages")
			}
			return nil
		},
	}

	drainStack := scaledStack()
	drainStack.OSReserveJitter = 0
	drainStack.Scheduler, drainStack.QueueDepth = "ncq", 32
	readers := int(pick(25000, 250))
	drain := &Workload{
		Name:  "drain-100k",
		Why:   "100k procs and a 100k-deep backlog: event heap, park/unpark, goroutine stacks and the queue backlog",
		Stack: drainStack,
		Load:  workload.MixedRegions(4, readers, 0, pick(256<<20, 16<<20), 2<<10),
		// One virtual second of issue; each reader's first read lands in
		// the backlog at t=0 and finishes long after, so the run is the
		// drain of exactly one op per reader.
		Duration: sim.Second,
		Cold:     true,
		check: func(s *Stats) error {
			if want := int64(4 * readers); s.Counter.Ops+s.Counter.Errors != want {
				return fmt.Errorf("finished %d ops, want %d", s.Counter.Ops+s.Counter.Errors, want)
			}
			return nil
		},
	}

	records := int(pick(1<<20, 1<<12))
	replay := &Workload{
		Name:         "replay-timed",
		Why:          "trace decode, scan and open-loop dispatch over a cache-resident metadata path with the device idle",
		Stack:        scaledStack(),
		TraceRecords: records,
		// The records are 1 µs apart; the horizon leaves a millisecond
		// past the last one, as core's default replay horizon does.
		Duration: sim.Time(records)*sim.Microsecond + sim.Millisecond,
		check: func(s *Stats) error {
			if s.Counter.Ops+s.Counter.Errors != int64(records) {
				return fmt.Errorf("replayed %d of %d records", s.Counter.Ops+s.Counter.Errors, records)
			}
			if s.Load.Offered != s.Load.Completed || s.Load.Offered != int64(records) {
				return fmt.Errorf("offered %d, completed %d of %d records", s.Load.Offered, s.Load.Completed, records)
			}
			return nil
		},
	}
	return []*Workload{cached, miss, write, drain, replay}
}

// Lookup finds a workload by name.
func Lookup(ws []*Workload, name string) (*Workload, bool) {
	for _, w := range ws {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// traceStreams and tracePaths shape the replay trace: eight submission
// streams stat'ing 64 paths, one record per virtual microsecond.
const (
	traceStreams = 8
	tracePaths   = 64
)

// WriteTrace writes the replay workload's trace to path: records
// FSBT v2 records, 1 µs apart, spread over traceStreams streams, each a
// stat of one of tracePaths paths drawn from seed.
func WriteTrace(path string, records int, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeTrace(f, records, seed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeTrace streams the replay trace into w.
func encodeTrace(w io.Writer, records int, seed uint64) error {
	rng := sim.NewRNG(seed)
	tw := trace.NewWriter(w)
	for i := 0; i < records; i++ {
		if err := tw.Write(trace.Record{
			At:     sim.Time(i) * sim.Microsecond,
			Kind:   workload.OpStat,
			Path:   fmt.Sprintf("/bench/f%02d", rng.Intn(tracePaths)),
			Owner:  i % traceStreams,
			Stream: i % traceStreams,
		}); err != nil {
			return err
		}
	}
	return tw.Close()
}
