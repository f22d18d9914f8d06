package workload

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Probe receives per-operation measurements. Any field may be nil.
// Latency excludes the tool's PerOpOverhead — it is the file-system
// call the paper's histograms show, not the benchmark loop around it.
type Probe struct {
	Series   *metrics.TimeSeries        // op completion counts over time
	Hist     *metrics.Histogram         // op latency distribution
	Timeline *metrics.HistogramTimeline // latency histograms over time
	// PerOwner, when non-nil, receives each operation keyed by the
	// issuing thread's OwnerID — per-thread op counts and latency
	// histograms, the fairness view. It honors Kinds and HistSince
	// like Hist.
	PerOwner *metrics.PerOwner
	// HistSince limits Hist recording to operations completing at or
	// after this virtual time (the paper's "report only the last
	// minute" steady-state protocol).
	HistSince sim.Time
	// Kinds limits recording to the given op kinds (nil = all).
	Kinds map[OpKind]bool
	// Trace, when non-nil, receives every operation with its issuing
	// owner, target, and byte range — the hook the trace recorder
	// attaches to. The owner rides along so captured traces carry the
	// requester identity replay needs for per-stream contention.
	Trace func(owner int, kind OpKind, path string, offset, size int64, start, done sim.Time)
}

// Observe records one completed operation — the entry point external
// engines (trace replay) share with the workload engine's execOp. A
// nil probe is a no-op.
func (p *Probe) Observe(owner int, kind OpKind, path string, offset, size int64, start, done sim.Time) {
	p.record(owner, kind, path, offset, size, start, done)
}

func (p *Probe) record(owner int, kind OpKind, path string, offset, size int64, start, done sim.Time) {
	if p == nil {
		return
	}
	if p.Trace != nil {
		p.Trace(owner, kind, path, offset, size, start, done)
	}
	if p.Kinds != nil && !p.Kinds[kind] {
		return
	}
	if p.Series != nil {
		p.Series.Add(done, 1)
	}
	lat := done - start
	if done >= p.HistSince {
		if p.Hist != nil {
			p.Hist.Record(lat)
		}
		if p.PerOwner != nil {
			p.PerOwner.Record(owner, lat)
		}
	}
	if p.Timeline != nil {
		p.Timeline.Record(done, lat)
	}
}

// Engine runs one Workload against one or more mounts under virtual
// time. Each mount is one shard: a stack (cache, file system, VFS)
// whose threads run on their own shard of a sim.ShardedLoop.
//
// Setup executes in immediate mode (synchronous device accesses); Run
// executes on the discrete-event kernel: every virtual thread is a
// sim.Proc that blocks when it issues I/O and wakes on the completion
// event, so threads genuinely contend for the device queue and
// queueing delay appears in the recorded latencies. Ops start in
// virtual-time order within a shard, so a run is bit-identical across
// repeats and host parallelism for a fixed (workload, seed, mounts).
//
// The topology comes from the mounts:
//   - One mount: one shard on the empty graph. It runs its heap dry in
//     one release, popping events in the same (time, sequence) order
//     as a plain sim.EventLoop.
//   - Mounts on private devices: replica shards, one device queue
//     each, on the empty graph. They never exchange mail, so they run
//     in parallel with no barriers.
//   - Two or more mounts on one device: the shared-device star. One
//     extra device shard owns the single queue over that device, and
//     every mount submits into it by mailbox.
//
// Any other mix is rejected.
//
// Partitioning rules:
//   - Closed-loop threads are dealt round-robin by global thread
//     index: thread i lands on shard i mod N.
//   - An open-loop class is indivisible — its generator, arrival
//     queue, and worker pool share state — so class k (in open-class
//     declaration order) lands wholly on shard k mod N.
//   - Every fileset is replicated onto every shard: round-robin
//     spreads each class's threads across all shards, so in general
//     every shard touches every fileset. Namespace churn (create,
//     delete) is shard-local.
//
// Thread owner IDs stay global (declaration order), so per-owner
// probes and queue stats merge without collisions.
//
// Replica shards model N complete machines: N device queues and N
// caches. That changes the contended system — shards>1 answers "N
// replicas of 1/Nth the load", not "the same one device under the same
// load" — which is exactly why replica shard count is excluded from
// the warehouse config fingerprint and recorded as run metadata
// instead (like Parallelism). See DESIGN.md §9.
type Engine struct {
	shards []*shard
	probe  *Probe
	// dev is the device every mount sits on in the shared-device star,
	// nil without a device shard.
	dev    device.Device
	qstats device.QueueStats // device-queue counters from the last Run
	// kernel is the last Run's loop tallies, summed over shards.
	kernel sim.Counters
}

// NewEngine prepares (but does not set up) an engine over one mount:
// NewShardedEngine's one-mount case.
func NewEngine(m *vfs.Mount, w *Workload, seed uint64) (*Engine, error) {
	return NewShardedEngine([]*vfs.Mount{m}, w, seed)
}

// NewShardedEngine prepares one shard per mount and partitions the
// workload's threads across them. The workload must validate; every
// mount must be distinct and freshly built, and the mounts must sit
// on private devices or all on one (see Engine).
//
// All randomness splits off one master stream seeded by seed, in this
// order:
//   - for each fileset with Entries > 1, in declaration order, one
//     Zipf stream per shard;
//   - for each thread, in declaration order, one stream, and after an
//     open class's workers one stream for its generator;
//   - one file-size stream for each shard after the first.
//
// Shard 0 draws file sizes from the master itself once construction
// is done, so replica shards setting up concurrently never share a
// stream. At one shard this is exactly the layout NewEngine has always
// had.
func NewShardedEngine(mounts []*vfs.Mount, w *Workload, seed uint64) (*Engine, error) {
	dev, err := topology(mounts)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	n := len(mounts)
	master := sim.NewRNG(seed)
	e := &Engine{shards: make([]*shard, n), dev: dev}
	for i, m := range mounts {
		e.shards[i] = &shard{m: m, w: w, sets: make(map[string]*fsState)}
	}
	// Every shard replicates every fileset and samples its popularity
	// from a stream of its own.
	for i := range w.FileSets {
		spec := w.FileSets[i]
		for _, sh := range e.shards {
			st := &fsState{spec: spec}
			if spec.Entries > 1 {
				st.zipf = sim.NewZipf(master.Split(), int64(spec.Entries), 1.1)
			}
			sh.sets[spec.Name] = st
		}
	}
	// Threads: owner IDs and RNG streams are assigned in global
	// declaration order — before and independent of shard placement —
	// so per-thread streams are stable properties of the workload.
	owner := 0
	openClasses := 0
	for ti := range w.Threads {
		spec := &w.Threads[ti]
		var cs *classState
		var home *shard
		if spec.Arrival.Open() {
			cs = &classState{spec: spec, cursors: make(map[string]int64)}
			home = e.shards[openClasses%n]
			openClasses++
		}
		for c := 0; c < spec.Count; c++ {
			sh := home
			if sh == nil {
				sh = e.shards[owner%n]
			}
			sh.threads = append(sh.threads, &threadState{
				spec:    spec,
				owner:   owner,
				class:   cs,
				cursors: make(map[string]int64),
				fds:     make(map[string]*vfs.FD),
				rng:     master.Split(),
			})
			owner++
		}
		if cs != nil {
			// The generator's stream splits after the class's worker
			// streams, so purely closed-loop workloads keep the exact
			// RNG assignment they had before open loops existed.
			cs.rng = master.Split()
			home.classes = append(home.classes, cs)
		}
	}
	e.shards[0].rng = master
	for _, sh := range e.shards[1:] {
		sh.rng = master.Split()
	}
	return e, nil
}

// topology rejects nil and duplicate mounts and a mix of shared and
// private devices. It returns the device of the shared-device star —
// two or more mounts on one device — and nil otherwise.
func topology(mounts []*vfs.Mount) (device.Device, error) {
	if len(mounts) < 1 {
		return nil, fmt.Errorf("workload: engine needs at least one mount")
	}
	for i, m := range mounts {
		if m == nil {
			return nil, fmt.Errorf("workload: engine: mount %d is nil", i)
		}
		for j := 0; j < i; j++ {
			if mounts[j] == m {
				return nil, fmt.Errorf("workload: engine: mounts %d and %d are the same stack", j, i)
			}
		}
	}
	// Replica shards run concurrently with no synchronization below
	// the mailbox layer, so a device reached from two of them would
	// race: two mounts on one device put every mount behind the device
	// shard.
	for i, m := range mounts {
		for j := 0; j < i; j++ {
			if mounts[j].Dev != m.Dev {
				continue
			}
			for k, other := range mounts {
				if other.Dev != m.Dev {
					return nil, fmt.Errorf("workload: engine: mounts %d and %d share a device but mount %d does not; mounts need private devices or one device between them all", j, i, k)
				}
			}
			return m.Dev, nil
		}
	}
	return nil, nil
}

// SetProbe installs the measurement probe. At one shard the shard
// records straight into p. With more, each shard records into a
// private clone during Run and the clones merge back into p when the
// run completes; Probe.Trace is then unsupported — a global trace
// would need a total cross-shard op order that sharding deliberately
// does not compute.
func (e *Engine) SetProbe(p *Probe) { e.probe = p }

// Setup builds every shard's filesets and flushes all dirty state so
// the measured phase starts from a clean, quiescent device. Replica
// shards set up concurrently: they are independent stacks in
// immediate mode, so host parallelism cannot affect any shard's
// result. Shared-device shards set up in order, since every shard's
// immediate-mode setup I/O mutates the one device's mechanical state
// (head position, noise stream), so interleaving would be both racy
// and nondeterministic. Setup returns the latest per-shard finish
// time, so all shards start the measured phase on one common clock.
func (e *Engine) Setup(at sim.Time) (sim.Time, error) {
	times := make([]sim.Time, len(e.shards))
	errs := make([]error, len(e.shards))
	if e.dev != nil {
		for i, sh := range e.shards {
			times[i], errs[i] = sh.setup(at)
		}
	} else {
		var wg sync.WaitGroup
		for i, sh := range e.shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				times[i], errs[i] = sh.setup(at)
			}()
		}
		wg.Wait()
	}
	var start sim.Time
	for i := range e.shards {
		if errs[i] != nil {
			return at, fmt.Errorf("shard %d: %w", i, errs[i])
		}
		if times[i] > start {
			start = times[i]
		}
	}
	return start, nil
}

// DropCaches empties every shard's page cache — the cold-start
// condition of the paper's Figure 2 experiment.
func (e *Engine) DropCaches() {
	for _, sh := range e.shards {
		sh.m.DropCaches()
	}
}

// Run executes the workload from time `from` until every thread's
// clock passes `until`. It returns the final virtual time (max over
// threads of all shards).
//
// Closed-loop thread classes run the classic loop: each thread issues
// its next op when the previous one completes. Open-loop classes add
// a generator per class, an event target, that stamps arrival times
// and puts op instances on the backlog the class's workers serve, so
// arrivals are not gated by service completions; latency is measured
// from arrival, and the offered-vs-completed gap lands in Load().
func (e *Engine) Run(from, until sim.Time) (sim.Time, error) {
	n := len(e.shards)
	if n > 1 && e.probe != nil && e.probe.Trace != nil {
		return from, fmt.Errorf("workload: op tracing requires shards=1")
	}
	// Replica shards never Send: their graph has no edges, so each
	// shard runs its heap dry in one release and the lookahead is moot.
	edges := make([][]int, n)
	var la sim.Time
	if e.dev != nil {
		// Star topology: every thread shard exchanges mail with the
		// device shard only, so thread shards are not barrier-stalled
		// by the hot device shard (and vice versa) beyond true causal
		// limits.
		edges = append(edges, make([]int, n))
		for i := 0; i < n; i++ {
			edges[i] = []int{n}
			edges[n][i] = i
		}
		// The lookahead is the device cost model's service-time floor:
		// a completion mailed at dispatch with its (known) future
		// completion time is then never clamped, so threads resume at
		// the exact instant a queue on their own loop would complete.
		la = e.dev.MinLatency()
	}
	sl := sim.NewShardedLoop(from, edges, la)
	// Every queue exists before any mount enters event mode, so a bad
	// scheduler fails while every mount is still in immediate mode.
	var queues []*device.Queue
	subs := make([]vfs.Submitter, n)
	if e.dev != nil {
		q, err := e.shards[0].m.NewQueue(sl.Shard(n))
		if err != nil {
			return from, err
		}
		queues = append(queues, q)
		for i := range subs {
			subs[i] = newDeviceBridge(sl, i, n, q)
		}
	} else {
		for i, sh := range e.shards {
			q, err := sh.m.NewQueue(sl.Shard(i))
			if err != nil {
				return from, err
			}
			queues = append(queues, q)
			subs[i] = q
		}
	}
	for i, sh := range e.shards {
		// One shard records straight into the caller's probe, so op
		// tracing works and nothing is copied; more record into clones
		// merged below.
		sh.probe = e.probe
		if n > 1 {
			sh.probe = cloneProbe(e.probe)
		}
		sh.begin(sl.Shard(i), until, subs[i])
	}
	sl.Run()
	e.kernel = sim.Counters{}
	for i := range edges {
		c := sl.Shard(i).Counters()
		e.kernel.Events += c.Events
		e.kernel.Resumes += c.Resumes
		e.kernel.InPlace += c.InPlace
		e.kernel.Spawned += c.Spawned
	}
	// The first queue's snapshot is the base the others merge into, so
	// one queue's 100k-owner map is copied once, not rebuilt.
	e.qstats = queues[0].Stats()
	for _, q := range queues[1:] {
		e.qstats.Merge(q.Stats())
	}
	var end sim.Time
	var firstErr error
	for i, sh := range e.shards {
		t, err := sh.end()
		if t > end {
			end = t
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
		// Merge in shard order: deterministic, and per-shard records
		// are themselves deterministic.
		mergeProbe(e.probe, sh.probe)
	}
	return end, firstErr
}

// Counter reports op totals summed over shards.
func (e *Engine) Counter() metrics.Counter {
	var c metrics.Counter
	for _, sh := range e.shards {
		c.Add(sh.counter)
	}
	return c
}

// Load reports the open-loop offered/completed gauge merged over
// shards. It stays zero-valued for purely closed-loop workloads, whose
// arrivals are gated by completions and cannot diverge.
func (e *Engine) Load() metrics.LoadGauge {
	var g metrics.LoadGauge
	for _, sh := range e.shards {
		g.Merge(sh.load)
	}
	return g
}

// QueueStats reports the device-queue counters accumulated during the
// last Run: submissions, completions, the queue-occupancy high-water
// mark, and total queueing delay, merged over the per-shard queues, or
// the one shared queue's in the shared-device star.
func (e *Engine) QueueStats() device.QueueStats { return e.qstats }

// deviceBridge implements vfs.Submitter for one thread shard in
// shared-device mode: Submit mails the request to the device shard
// (the submit edge pays up to one lookahead of mailbox latency — the
// disclosed cost of the mode), where it enters the shared queue with
// a return sender that mails the completion back. Because completions
// are mailed at dispatch stamped with their exact completion time —
// always at least MinLatency ≥ lookahead in the future — the
// completion edge is never clamped and costs nothing.
type deviceBridge struct {
	sl       *sim.ShardedLoop
	src, dst int
	q        *device.Queue
	sender   device.RemoteSender
}

func newDeviceBridge(sl *sim.ShardedLoop, src, dst int, q *device.Queue) *deviceBridge {
	b := &deviceBridge{sl: sl, src: src, dst: dst, q: q}
	// One completion sender per shard for the queue to reuse — not one
	// closure per request.
	b.sender = func(at sim.Time, fn func()) { sl.Send(dst, src, at, fn) }
	return b
}

// Submit implements vfs.Submitter.
func (b *deviceBridge) Submit(at sim.Time, req device.Request, done func(sim.Time, error)) {
	b.sl.Send(b.src, b.dst, at, func() {
		// Runs on the device shard at the (clamped) arrival time;
		// SubmitRemote re-clamps at up to the loop clock.
		b.q.SubmitRemote(at, req, b.sender, done)
	})
}

// cloneProbe builds an empty probe with the same sinks enabled, the
// same alignment (interval, offset), and the same filters as p.
func cloneProbe(p *Probe) *Probe {
	if p == nil {
		return nil
	}
	c := &Probe{HistSince: p.HistSince, Kinds: p.Kinds}
	if p.Series != nil {
		c.Series = metrics.NewTimeSeriesOffset(p.Series.Interval(), p.Series.Offset())
	}
	if p.Hist != nil {
		c.Hist = &metrics.Histogram{}
	}
	if p.Timeline != nil {
		c.Timeline = metrics.NewHistogramTimelineOffset(p.Timeline.Interval(), p.Timeline.Offset())
	}
	if p.PerOwner != nil {
		c.PerOwner = &metrics.PerOwner{}
	}
	return c
}

// mergeProbe folds a shard clone's records back into the original. A
// shard that recorded straight into dst has nothing to fold.
func mergeProbe(dst, src *Probe) {
	if dst == nil || src == nil || dst == src {
		return
	}
	if dst.Series != nil {
		dst.Series.Merge(src.Series)
	}
	if dst.Hist != nil {
		dst.Hist.Merge(src.Hist)
	}
	if dst.Timeline != nil {
		dst.Timeline.Merge(src.Timeline)
	}
	if dst.PerOwner != nil {
		dst.PerOwner.Merge(src.PerOwner)
	}
}
