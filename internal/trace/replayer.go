package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// ReplayMode selects the replayer's timing discipline — the first
// axis of the replay-trace taxonomy (timing faithfulness).
type ReplayMode int

// Replay modes.
const (
	// Timed dispatches each operation at its recorded offset from
	// trace start (open-loop replay): arrivals are not gated by
	// completions, so a system slower than the traced one builds a
	// backlog that shows up in the load gauge and in arrival-measured
	// latency.
	Timed ReplayMode = iota
	// AFAP replays as fast as possible (closed loop): each stream
	// issues its next operation when the previous completes. The load
	// gauge stays trivially satisfied — exactly the self-throttling
	// the paper warns about, kept as a discipline because it measures
	// peak absorbable throughput.
	AFAP
	// Scaled is Timed with inter-arrival gaps compressed by Scale:
	// ×N replays the same operation mix at N times the recorded
	// intensity, the load-scaling axis of the taxonomy.
	Scaled
)

// String names the mode the way the CLI and warehouse spell it.
func (m ReplayMode) String() string {
	switch m {
	case Timed:
		return "timed"
	case AFAP:
		return "afap"
	case Scaled:
		return "scaled"
	}
	return fmt.Sprintf("ReplayMode(%d)", int(m))
}

// ParseReplayMode resolves a CLI spelling.
func ParseReplayMode(s string) (ReplayMode, error) {
	switch s {
	case "timed":
		return Timed, nil
	case "afap":
		return AFAP, nil
	case "scaled":
		return Scaled, nil
	}
	return 0, fmt.Errorf("trace: unknown replay mode %q (want timed, afap, or scaled)", s)
}

// maxOpenFDs caps each stream's open file descriptors like a real
// process's rlimit; the least recently opened handle is closed when
// the table is full. The cap decides which opens a replay performs,
// so it is fixed: a per-replay setting would have to join the
// warehouse fingerprint.
const maxOpenFDs = 256

// EngineConfig describes one replay.
type EngineConfig struct {
	// Mode is the timing discipline.
	Mode ReplayMode
	// Scale compresses inter-arrival gaps in Scaled mode (×2 replays
	// at twice the recorded intensity). <= 0 means 1. Ignored by AFAP.
	Scale float64
	// Tenants are the traces to replay concurrently, each under its
	// own path prefix and owner range — the multi-tenant merge that
	// turns any captured trace into a fairness/contention scenario.
	// One tenant replays the trace as captured.
	Tenants []Source
}

// scale returns the effective time-compression factor.
func (c EngineConfig) scale() float64 {
	if c.Mode == Scaled && c.Scale > 0 {
		return c.Scale
	}
	return 1
}

// stream is one replay worker: the records of one captured submission
// stream execute in order on it, while distinct streams contend on
// the device queue — the captured concurrency structure, preserved.
type stream struct {
	id      int // captured stream id
	owner   int // global OwnerID across all tenants
	tn      *tenant
	now     sim.Time
	arrival sim.Time
	// backlog holds the records dispatched to the stream and not yet
	// served (timed and scaled modes); its one server is the worker.
	backlog sim.Backlog[Record]
	fds     map[string]*vfs.FD
	fdOrder []string // open order: evictions and picks stay deterministic
}

// tenant is one merged trace with its own namespace and streams.
type tenant struct {
	src     Source
	prefix  string // "" single-tenant, "/tK" under merge
	scan    Scan
	streams []*stream
	byID    map[int]*stream
}

// Engine replays one or more traces against a mount on the event
// kernel. It satisfies core's per-run engine surface (Setup,
// DropCaches, SetProbe, Run, Load, Counter), so a trace slots into
// Experiment wherever a Workload would.
//
// Each captured stream runs on one sim.Proc. In timed and scaled
// modes a per-tenant dispatcher, an event target with no process of
// its own, puts records on the streams' sim.Backlogs, which those
// procs serve; an afap stream reads its own records. A record
// therefore costs one process resume when its stream is idle. Replay
// streams: each dispatcher reads its tenant's source through an
// Iterator, so memory stays O(streams + in-flight backlog), never
// O(records).
type Engine struct {
	m       *vfs.Mount
	cfg     EngineConfig
	tenants []*tenant
	workers int
	probe   *workload.Probe
	counter metrics.Counter
	load    metrics.LoadGauge
	runErr  error
	// kernel is the last Run's loop tallies.
	kernel sim.Counters
}

// NewEngine prepares a replay. It pre-scans every tenant's trace
// (streams, span, digest) — one streaming pass per source.
func NewEngine(m *vfs.Mount, cfg EngineConfig) (*Engine, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("trace: replay needs at least one tenant source")
	}
	e := &Engine{m: m, cfg: cfg}
	owner := 0
	for k, src := range cfg.Tenants {
		sc, err := ScanSource(src)
		if err != nil {
			return nil, fmt.Errorf("trace: scanning tenant %d: %w", k, err)
		}
		tn := &tenant{src: src, scan: sc, byID: make(map[int]*stream)}
		if len(cfg.Tenants) > 1 {
			tn.prefix = fmt.Sprintf("/t%d", k)
		}
		for _, id := range sc.Streams {
			st := &stream{
				id: id, owner: owner, tn: tn,
				fds: make(map[string]*vfs.FD),
			}
			owner++
			tn.streams = append(tn.streams, st)
			tn.byID[id] = st
		}
		e.tenants = append(e.tenants, tn)
	}
	e.workers = owner
	return e, nil
}

// SetProbe installs the measurement probe.
func (e *Engine) SetProbe(p *workload.Probe) { e.probe = p }

// Counter reports op totals accumulated so far.
func (e *Engine) Counter() metrics.Counter { return e.counter }

// Load reports the offered/completed gauge. Timed and Scaled replays
// fill it (they are open loops); AFAP leaves it zero — a closed loop
// completes everything it offers by construction, which is precisely
// how it hides saturation.
func (e *Engine) Load() metrics.LoadGauge { return e.load }

// Setup reconstructs the namespace the capture assumed: every path
// the trace references without first creating is pre-created, files
// sized to the largest extent the trace reads (Scan.Extents), so
// replayed reads perform the I/O the captured reads did instead of
// returning instantly from holes in empty lazily-created files. Paths
// the trace itself creates are left to the replay.
func (e *Engine) Setup(at sim.Time) (sim.Time, error) {
	now := at
	for _, tn := range e.tenants {
		for _, dir := range tn.scan.Dirs {
			now = e.mkdirAll(now, tn.prefix+dir)
		}
		paths := make([]string, 0, len(tn.scan.Extents))
		for p := range tn.scan.Extents {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			full := tn.prefix + p
			now = e.ensureParents(now, full)
			fd, done, err := e.m.Create(now, full)
			if err != nil {
				return now, fmt.Errorf("trace: setup %s: %w", full, err)
			}
			now = done
			if size := tn.scan.Extents[p]; size > 0 {
				done, err = e.m.Write(now, fd, 0, size)
				if err != nil {
					return now, fmt.Errorf("trace: setup %s: %w", full, err)
				}
				now = done
			}
			e.m.Close(fd)
		}
	}
	return e.m.SyncAll(now)
}

// DropCaches empties the page cache (cold-start replay).
func (e *Engine) DropCaches() { e.m.DropCaches() }

// Run replays from virtual time `from` until the trace is exhausted
// or the horizon `until` passes: dispatchers stop offering records
// scheduled at or beyond it and workers abandon their remaining
// backlog, which the load gauge then reports as offered-but-not-
// completed. The run executes on a discrete-event loop — one proc
// per stream, plus one dispatcher event per tenant in timed/scaled
// modes — so results are bit-identical at any host parallelism.
func (e *Engine) Run(from, until sim.Time) (sim.Time, error) {
	// Iterators open before the mount enters event mode, so open errors
	// are synchronous and leave nothing to unwind but the iterators: the
	// mount stays in event mode until a loop that ran calls EndEvents.
	// afap gives each stream its own filtered iterator, timed/scaled one
	// shared iterator per tenant dispatcher.
	open := e.cfg.Mode != AFAP
	type start struct {
		tn *tenant
		st *stream // the afap stream; nil for a tenant's dispatcher
		it Iterator
	}
	var starts []start
	fail := func(err error) (sim.Time, error) {
		for _, s := range starts {
			s.it.Close()
		}
		return from, err
	}
	for _, tn := range e.tenants {
		if open {
			it, err := tn.src.Open()
			if err != nil {
				return fail(err)
			}
			starts = append(starts, start{tn: tn, it: it})
			continue
		}
		for _, st := range tn.streams {
			it, err := tn.src.Open()
			if err != nil {
				return fail(err)
			}
			starts = append(starts, start{tn: tn, st: st, it: it})
		}
	}
	loop := sim.NewEventLoop(from)
	q, err := e.m.NewQueue(loop)
	if err != nil {
		return fail(err)
	}
	// Each worker and each dispatcher calls finish once as it ends;
	// the last call retires the write-back daemon.
	n := e.workers
	if open {
		n += len(e.tenants)
	}
	finish := e.m.BeginEvents(loop, q, n)
	e.runErr = nil
	// Workers spawn before dispatchers so every stream is parked on
	// its queue before the first arrival fires.
	for _, tn := range e.tenants {
		for _, st := range tn.streams {
			st.now = from
			if open {
				p := loop.Go(from, func(p *sim.Proc) {
					defer finish()
					e.streamWorker(p, st, until)
				})
				p.Owner = st.owner + 1
			}
		}
	}
	for _, s := range starts {
		if s.st == nil {
			loop.ScheduleTarget(from, &dispatcher{
				e: e, tn: s.tn, it: s.it, loop: loop,
				from: from, until: until, scale: e.cfg.scale(), finish: finish,
			})
			continue
		}
		p := loop.Go(from, func(p *sim.Proc) {
			defer finish()
			e.afapWorker(p, s.st, s.it, until)
		})
		p.Owner = s.st.owner + 1
	}
	loop.Run()
	e.kernel = loop.Counters()
	e.m.EndEvents()
	for _, s := range starts {
		s.it.Close()
	}
	var end sim.Time
	for _, tn := range e.tenants {
		for _, st := range tn.streams {
			if st.now > end {
				end = st.now
			}
		}
	}
	return end, e.runErr
}

// dispatcher is a tenant's arrival process in timed/scaled modes: it
// streams records off the source and hands each to its stream's
// worker at the record's (scaled) submission time, never waiting for
// service completions, so offered load is faithful to the recording
// regardless of how the replayed system keeps up. It is an event
// target that schedules itself at its next record's time, so it costs
// no process and no goroutine.
type dispatcher struct {
	e           *Engine
	tn          *tenant
	it          Iterator
	loop        *sim.EventLoop
	from, until sim.Time
	scale       float64
	finish      func()
	// next is the record the pending event delivers at its arrival
	// time at, if held.
	next Record
	at   sim.Time
	held bool
}

// RunEvent implements sim.EventTarget. It delivers the record it was
// scheduled for, then reads on: records due by now are delivered in
// this event, records at or past the horizon are skipped, and the
// first later record is held for an event at its time. At the end of
// the source, on a read error, or once a run error is set, it closes
// the tenant's stream backlogs.
func (d *dispatcher) RunEvent() {
	e, now := d.e, d.loop.Now()
	if d.held {
		d.held = false
		d.deliver(d.next, d.at)
	}
	for e.runErr == nil {
		rec, err := d.it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			e.runErr = err
			break
		}
		sched := d.from + sim.Time(float64(rec.At)/d.scale)
		if sched >= d.until {
			// Past the horizon: this record (and, in a time-ordered
			// trace, every later one) is never offered.
			continue
		}
		if sched > now {
			d.next, d.at, d.held = rec, sched, true
			d.loop.ScheduleTarget(sched, d)
			return
		}
		d.deliver(rec, sched)
	}
	for _, st := range d.tn.streams {
		st.backlog.Close()
	}
	d.finish()
}

// deliver puts one record, arrived at at, on its stream's backlog.
func (d *dispatcher) deliver(rec Record, at sim.Time) {
	st, ok := d.tn.byID[rec.Stream]
	if !ok {
		d.e.runErr = fmt.Errorf("trace: record references unscanned stream %d", rec.Stream)
		return
	}
	d.e.load.Arrive()
	st.backlog.Put(at, rec)
}

// streamWorker executes one stream's dispatched records in order
// (timed/scaled modes), serving the stream's backlog. Latency is
// measured from the record's scheduled arrival, so time spent queued
// behind a slow device is part of the recorded latency — the open-
// loop signature. At the horizon the worker abandons what is left,
// which the load gauge reports as offered minus completed.
func (e *Engine) streamWorker(p *sim.Proc, st *stream, until sim.Time) {
	srv := st.backlog.Serve(p)
	for e.runErr == nil {
		at, rec, ok := srv.Take(&st.now, until)
		if !ok {
			return
		}
		st.arrival = at
		if err := e.exec(st, rec); err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			return
		}
		e.load.Complete()
	}
}

// afapWorker replays one stream closed-loop: it filters the tenant's
// record sequence down to its own stream and issues each operation
// when the previous completes.
func (e *Engine) afapWorker(p *sim.Proc, st *stream, it Iterator, until sim.Time) {
	for st.now < until && e.runErr == nil {
		rec, err := it.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			return
		}
		if rec.Stream != st.id {
			continue
		}
		p.WaitUntil(st.now)
		st.arrival = st.now
		if err := e.exec(st, rec); err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			return
		}
	}
}

// ensureParents recreates missing parent directories: traces
// reference a namespace that existed on the traced system, not on
// this one.
func (e *Engine) ensureParents(at sim.Time, path string) sim.Time {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return e.mkdirAll(at, path[:i])
	}
	return at
}

// mkdirAll is mkdir -p: every missing component, leaf included.
func (e *Engine) mkdirAll(at sim.Time, path string) sim.Time {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	prefix := ""
	for _, part := range parts {
		if part == "" {
			continue
		}
		prefix += "/" + part
		if done, err := e.m.Mkdir(at, prefix); err == nil {
			at = done
		}
	}
	return at
}

// trackFD registers an open handle, evicting the least recently
// opened one when the stream is at its descriptor cap — the bound a
// real process's rlimit imposes, and the fix for the old replayer
// holding every file it ever touched open for the whole replay.
func (e *Engine) trackFD(st *stream, path string, fd *vfs.FD) {
	st.fds[path] = fd
	st.fdOrder = append(st.fdOrder, path)
	if len(st.fdOrder) > maxOpenFDs {
		victim := st.fdOrder[0]
		st.fdOrder = st.fdOrder[1:]
		if vfd, ok := st.fds[victim]; ok {
			e.m.Close(vfd)
			delete(st.fds, victim)
		}
	}
}

// dropFD forgets (without closing) the stream's handle for path.
func (st *stream) dropFD(path string) {
	if _, ok := st.fds[path]; !ok {
		return
	}
	delete(st.fds, path)
	for i, p := range st.fdOrder {
		if p == path {
			st.fdOrder = append(st.fdOrder[:i], st.fdOrder[i+1:]...)
			break
		}
	}
}

// openOrCreate returns the stream's handle for path, opening or (for
// paths that predate the capture) creating it on first touch.
func (e *Engine) openOrCreate(st *stream, at sim.Time, path string) (*vfs.FD, sim.Time, error) {
	if fd, ok := st.fds[path]; ok {
		return fd, at, nil
	}
	fd, done, err := e.m.Open(at, path)
	if errors.Is(err, fs.ErrNotExist) {
		at = e.ensureParents(at, path)
		fd, done, err = e.m.Create(at, path)
	}
	if err != nil {
		return nil, at, err
	}
	e.trackFD(st, path, fd)
	return fd, done, nil
}

// exec replays one record on its stream. Benign errors (a stat on a
// path the capture deleted, a read racing the trace's own unlink) are
// counted, advancing the clock to the actual failure return; only an
// unreplayable record kind is fatal.
func (e *Engine) exec(st *stream, rec Record) error {
	issue := st.now
	path := st.tn.prefix + rec.Path
	var done sim.Time
	var err error
	var moved int64
	switch rec.Kind {
	case workload.OpReadRand, workload.OpReadSeq, workload.OpReadWholeFile:
		var fd *vfs.FD
		fd, issue, err = e.openOrCreate(st, issue, path)
		if err == nil {
			moved, done, err = e.m.Read(issue, fd, rec.Offset, rec.Size)
		}
	case workload.OpWriteRand, workload.OpWriteSeq, workload.OpAppend:
		var fd *vfs.FD
		fd, issue, err = e.openOrCreate(st, issue, path)
		if err == nil {
			done, err = e.m.Write(issue, fd, rec.Offset, rec.Size)
			if err == nil {
				moved = rec.Size
			}
		}
	case workload.OpCreate:
		issue = e.ensureParents(issue, path)
		var fd *vfs.FD
		fd, done, err = e.m.Create(issue, path)
		if err == nil {
			e.trackFD(st, path, fd)
		}
	case workload.OpDelete:
		// Every stream in the tenant must release its handle: the
		// file is gone for the whole namespace, and the old replayer's
		// silent map-drop leaked the descriptor.
		for _, s := range st.tn.streams {
			if fd, ok := s.fds[path]; ok {
				e.m.Close(fd)
				s.dropFD(path)
			}
		}
		done, err = e.m.Unlink(issue, path)
	case workload.OpStat:
		_, done, err = e.m.Stat(issue, path)
	case workload.OpFsync:
		fd, ok := st.fds[path]
		if !ok {
			fd, issue, err = e.openOrCreate(st, issue, path)
		}
		if err == nil && fd != nil {
			done, err = e.m.Fsync(issue, fd)
		}
	case workload.OpMkdir:
		done, err = e.m.Mkdir(issue, path)
	case workload.OpReadDir:
		_, done, err = e.m.ReadDir(issue, path)
	case workload.OpOpen:
		_, done, err = e.openOrCreate(st, issue, path)
		if done < issue {
			done = issue
		}
	case workload.OpClose:
		// Honor the capture: close the named handle if the stream
		// holds it (the old replayer ignored Close entirely).
		if fd, ok := st.fds[path]; ok {
			e.m.Close(fd)
			st.dropFD(path)
		}
		done = issue
	case workload.OpThink:
		done = issue
	default:
		return fmt.Errorf("trace: unreplayable record kind %v", rec.Kind)
	}
	if err != nil {
		// Errored ops are accounted, not vanished: the clock advances
		// to the failure return (vfs ops report how far they got).
		e.counter.Errors++
		st.now = max(done, issue)
		return nil
	}
	if done < issue {
		done = issue
	}
	e.counter.Ops++
	e.counter.Bytes += moved
	e.probe.Observe(st.owner, rec.Kind, path, rec.Offset, moved, st.arrival, done)
	st.now = done
	return nil
}
