// Package vfs assembles a device, a page-cache hierarchy, and a
// file-system model into a mountable stack with POSIX-shaped
// operations under virtual time.
//
// Every operation takes the virtual time at which it is issued and
// returns the virtual time at which it completes; the difference is
// the operation's latency, which the paper's Figures 3 and 4 histogram.
// Reads consult the cache hierarchy per page; misses resolve the block
// mapping through the file system (charging metadata I/O through the
// same cache) and read the device. Writes dirty cache pages; in
// event-driven runs a pdflush-style daemon ages them out
// under its own requester identity while dirty throttling parks
// writers at the high-water mark, and in immediate mode the op that
// crosses the background threshold sends the oldest-dirtied batch
// through the sync flush path — either way deferred writes keep the
// device busy, delaying subsequent misses, exactly the coupling that
// makes "simple" benchmarks fragile.
package vfs

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
)

// sectorsPerBlock converts file-system blocks to device sectors.
const sectorsPerBlock = int64(fs.BlockSize / device.SectorSize)

const (
	// l2HitPerPage is the cost of promoting and delivering a page from
	// the flash tier.
	l2HitPerPage = 90 * sim.Microsecond
	// dirtyHighRatio is the dirty-throttling high-water mark for
	// event-driven runs, as a fraction of L1 capacity (dirtyHighPages).
	dirtyHighRatio = 0.40
	// writebackBatch is the number of pages flushed per write-back
	// round.
	writebackBatch = 256
	// writebackInterval is the write-back daemon's (flusher's) wake
	// period in event-driven runs.
	writebackInterval = 500 * sim.Millisecond
)

// Config tunes the software costs of the stack.
type Config struct {
	// SyscallOverhead is charged once per VFS operation (entry,
	// argument checking, fd lookup).
	SyscallOverhead sim.Time
	// HitPerPage is the cost of delivering one resident page
	// (lookup + copy to the user buffer).
	HitPerPage sim.Time
	// DirtyRatio triggers write-back when dirty pages exceed this
	// fraction of L1 capacity (the background threshold: an op's
	// write-back batch in immediate mode, the daemon in event mode).
	DirtyRatio float64
	// AtimeUpdates enables access-time maintenance on reads (the
	// 2011-era default; relatime arrived later).
	AtimeUpdates bool
	// Readahead overrides the file system's hint when non-nil.
	Readahead cache.Readahead
	// QueueDepth bounds the device queue's reorder window during
	// event-driven runs (<= 0 selects device.DefaultQueueDepth). With
	// depth 1 every scheduler degenerates to FCFS.
	QueueDepth int
	// Scheduler names the I/O scheduler for event-driven runs:
	// "fcfs", "elevator", "ncq", "cfq", "cfq-idle" ("" selects
	// device.DefaultScheduler).
	Scheduler string
}

// DefaultConfig returns costs calibrated to a 2.8 GHz Xeon of the
// paper's era.
func DefaultConfig() Config {
	return Config{
		SyscallOverhead: 2 * sim.Microsecond,
		HitPerPage:      1500 * sim.Nanosecond,
		DirtyRatio:      0.20,
		AtimeUpdates:    true,
	}
}

// Stats counts VFS-level events.
type Stats struct {
	Reads, Writes, Creates, Unlinks, Stats, Opens, Fsyncs, Mkdirs, ReadDirs int64
	BytesRead, BytesWritten                                                 int64
	DentryHits, DentryMisses                                                int64
	WritebackRounds, WritebackPages                                         int64
	// ThrottleStalls counts write-path operations that parked at the
	// dirty high-water mark (event mode only).
	ThrottleStalls int64
	// DirtyPeakPages is the high-water mark of dirty + in-flight
	// write-back pages observed at write-path op boundaries.
	DirtyPeakPages int64
}

// Mount is a mounted stack. It is not locked: callers are either a
// single goroutine (immediate mode) or processes serialized by the
// event kernel's one-baton discipline (event mode, DESIGN.md §4.2).
//
// The mount runs in one of two modes. In immediate mode (the default)
// every device access resolves synchronously through Device.Submit —
// setup (including trace replay's namespace reconstruction) and the
// nano raw-device tests use it; replay itself runs in event mode.
// Between BeginEvents and EndEvents the mount is in event mode: device
// accesses go to a Submitter the caller owns — a device.Queue drained
// by an I/O scheduler, or a bridge to a queue on another shard — the
// issuing process blocks until its request's completion event fires,
// and asynchronous work (write-back, prefetch, journal pushes) merely
// occupies the queue — so contention, queueing delay, and scheduler
// choice emerge in operation latency.
type Mount struct {
	FS  fs.FileSystem
	Dev device.Device
	PC  *cache.Hierarchy
	cfg Config
	ra  cache.Readahead

	dcache  map[string]fs.Ino
	sizes   map[fs.Ino]int64 // cached file sizes (inode cache)
	stats   Stats
	scratch []cache.PageID // reusable buffer for dirty collection

	// Event mode (nil outside BeginEvents..EndEvents).
	loop *sim.EventLoop
	// sub is where event-mode submissions go: a queue, or the workload
	// engine's cross-shard mailbox to the device shard. sub == nil
	// means immediate mode.
	sub Submitter
	// asyncPool recycles deferred-submission events (submitAsync) so
	// the fire-and-forget hot path allocates no closures.
	asyncPool []*asyncReq
	// waitPool recycles blocking submissions' completions (submitSync)
	// the same way, so a blocking request allocates only its IORequest.
	waitPool []*syncWait
	// flusherStop retires the write-back daemon: its next wake does
	// not schedule another, letting the event loop drain after the
	// workload finishes.
	flusherStop bool
	// dirtyWaiters are processes parked on dirty/write-back state —
	// throttled writers, SyncAll, Fsync — in park order. Every
	// write-back completion wakes them once each to re-check.
	dirtyWaiters []*sim.Proc
}

// New mounts filesystem fsys on dev behind the cache hierarchy pc.
func New(fsys fs.FileSystem, dev device.Device, pc *cache.Hierarchy, cfg Config) *Mount {
	m := &Mount{
		FS:     fsys,
		Dev:    dev,
		PC:     pc,
		cfg:    cfg,
		dcache: make(map[string]fs.Ino),
		sizes:  make(map[fs.Ino]int64),
	}
	if cfg.Readahead != nil {
		m.ra = cfg.Readahead
	} else {
		init, max := fsys.ReadaheadHint()
		m.ra = cache.NewAdaptiveReadahead(init, max)
	}
	return m
}

// Stats returns a snapshot of the counters.
func (m *Mount) Stats() Stats { return m.stats }

// ResetStats zeroes VFS, cache, and device counters (between
// benchmark phases).
func (m *Mount) ResetStats() {
	m.stats = Stats{}
	m.PC.L1.ResetStats()
	if m.PC.L2 != nil {
		m.PC.L2.ResetStats()
	}
	m.Dev.ResetStats()
}

// DropCaches empties every cache tier, writing nothing back: the
// cold-start condition of the paper's Figure 2 experiment. Call it
// after SyncAll, or dirty pages are lost.
func (m *Mount) DropCaches() {
	m.PC.L1.Flush()
	if m.PC.L2 != nil {
		m.PC.L2.Flush()
	}
}

// --- Event mode ------------------------------------------------------

// Submitter is where event-mode submissions go. *device.Queue
// implements it; in its shared-device topology the workload engine
// implements it with a cross-shard bridge so a mount on a thread shard
// can submit to the queue owned by the device shard. done, when
// non-nil, must be invoked in the submitting loop's context at the
// request's completion time, as the last act of its event: nothing in
// that event may run after done returns. That is what lets a blocking
// submission resume its process with Proc.RunEvent, as from the
// process's own wake.
type Submitter interface {
	Submit(at sim.Time, req device.Request, done func(sim.Time, error))
}

// BeginEvents switches the mount into event mode on loop: device
// accesses go to sub (a device.Queue from NewQueue, or a bridge to a
// queue on another shard), operations must run inside processes, and
// each request a process submits carries its Owner. n counts the
// phase's processes and feeders (such as open-loop generators); each
// calls the returned done once as it finishes, and the n-th call
// retires the write-back daemon, whose periodic wake would otherwise
// keep the loop alive (n = 0 retires it at once). The workload and
// trace engines call it at the start of every measured run.
func (m *Mount) BeginEvents(loop *sim.EventLoop, sub Submitter, n int) (done func()) {
	m.loop = loop
	m.sub = sub
	m.flusherStop = n == 0
	// Every live process and feeder holds at most one pending event,
	// plus the daemon's wake: reserving them up front keeps the
	// measured phase free of heap growth.
	loop.Reserve(n + 16)
	loop.ScheduleTarget(loop.Now()+writebackInterval, flusher{m})
	return func() {
		if n--; n == 0 {
			m.flusherStop = true
		}
	}
}

// NewQueue builds a device queue per this mount's configuration
// (scheduler, depth) on loop, without entering event mode. Engines
// build their queues with it before any mount enters event mode, so a
// bad scheduler fails while every mount is still in immediate mode.
func (m *Mount) NewQueue(loop *sim.EventLoop) (*device.Queue, error) {
	sched, err := device.NewScheduler(m.cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	return device.NewQueue(m.Dev, sched, m.cfg.QueueDepth, loop), nil
}

// EndEvents leaves event mode. The caller must have run the loop dry
// first; the queue's counters stay with whoever built it.
func (m *Mount) EndEvents() {
	m.loop = nil
	m.sub = nil
	m.flusherStop = true
	m.dirtyWaiters = nil
}

// InEvents reports whether the mount is in event mode.
func (m *Mount) InEvents() bool { return m.sub != nil }

// running is the process whose operation is executing: the event
// loop's baton holder in event mode, nil in immediate mode or in loop
// context.
func (m *Mount) running() *sim.Proc {
	if m.sub == nil {
		return nil
	}
	return m.loop.Running()
}

// --- Write-back daemon and dirty throttling --------------------------

// flusher is the write-back daemon: the pdflush of this stack. It
// wakes every writebackInterval of virtual time and, while dirty
// pages exceed the background threshold (DirtyRatio), retires them
// oldest-dirtied first in writebackBatch-sized bursts submitted under
// its own identity (device.OwnerDaemon). Flushed pages sit in the
// write-back state until their completion events fire — only then do
// they become clean — so the daemon genuinely competes with workload
// threads for the device instead of flushing for free at op
// boundaries. It never blocks, so it is an event target, not a
// process; a one-pointer struct boxes into the interface without
// allocating.
type flusher struct{ m *Mount }

// RunEvent implements sim.EventTarget: one wake of the daemon, which
// schedules the next unless BeginEvents' countdown retired it.
func (f flusher) RunEvent() {
	m := f.m
	if m.flusherStop {
		return
	}
	now := m.loop.Now()
	m.flusherRound(now)
	// Unmappable pages are cleaned without a completion event;
	// give anyone parked on dirty state a chance to re-check.
	m.wakeDirtyWaiters()
	m.loop.ScheduleTarget(now+writebackInterval, f)
}

// flusherRound flushes batches until dirty pages drop below the
// background threshold or nothing flushable remains.
func (m *Mount) flusherRound(now sim.Time) {
	l1 := m.PC.L1
	if l1.Capacity() == 0 {
		return
	}
	threshold := m.dirtyThreshold()
	for l1.DirtyCount() >= threshold {
		if m.flushBatch(now) == 0 {
			return // all remaining dirty pages unmappable or already in flight
		}
	}
}

// dirtyThreshold is the background write-back threshold in pages.
func (m *Mount) dirtyThreshold() int {
	return max(int(m.cfg.DirtyRatio*float64(m.PC.L1.Capacity())), 1)
}

// flushBatch collects one batch of dirty pages (oldest dirtied
// first), moves them to the write-back state, and submits their
// writes under the daemon's identity. Pages become clean only when
// each write's completion event fires (endWriteback) — until then
// they count against the dirty high-water mark, so throttling and
// SyncAll see true in-flight state. It returns the number of writes
// issued.
func (m *Mount) flushBatch(at sim.Time) int {
	l1 := m.PC.L1
	m.scratch = l1.CollectDirty(m.scratch[:0], writebackBatch)
	issued := 0
	for _, id := range m.scratch {
		lba, ok := m.pageLBA(id)
		if !ok {
			l1.Clean(id) // unmappable page: drop the dirty bit
			continue
		}
		gen, ok := l1.MarkWriteback(id)
		if !ok {
			continue // re-dirtied while a previous flush is still in flight
		}
		m.sub.Submit(at, device.Request{
			Op: device.Write, LBA: lba, Sectors: sectorsPerBlock, Owner: device.OwnerDaemon,
		}, func(_ sim.Time, _ error) { m.endWriteback(id, gen) })
		issued++
	}
	if issued > 0 {
		m.stats.WritebackRounds++
		m.stats.WritebackPages += int64(issued)
	}
	return issued
}

// endWriteback runs in loop context at a flusher write's completion:
// the page leaves the write-back state (staying dirty only if
// re-dirtied mid-flight) and parked processes re-check their
// conditions.
func (m *Mount) endWriteback(id cache.PageID, gen uint64) {
	m.PC.L1.EndWriteback(id, gen)
	m.wakeDirtyWaiters()
}

// wakeDirtyWaiters unparks, in park order, every process waiting on
// dirty/write-back state. Each woken process runs to its next park
// before the next is woken (one-baton discipline) and re-parks itself
// — onto the fresh list, to be woken at the next completion — if its
// condition still holds, so the wake order and the whole simulation
// stay deterministic.
func (m *Mount) wakeDirtyWaiters() {
	if len(m.dirtyWaiters) == 0 {
		return
	}
	ws := m.dirtyWaiters
	m.dirtyWaiters = nil
	for _, p := range ws {
		p.Unpark()
	}
}

// dirtyHighPages is the throttling high-water mark in pages: a
// write-path operation parks its process while dirty + in-flight
// write-back pages are at or above it, resuming on write-back
// completions. It must sit above the background threshold, or writers
// would park below the point where the daemon even starts flushing, so
// a DirtyRatio of dirtyHighRatio or more doubles instead.
func (m *Mount) dirtyHighPages() int {
	ratio := dirtyHighRatio
	if ratio <= m.cfg.DirtyRatio {
		ratio = 2 * m.cfg.DirtyRatio
	}
	return max(int(ratio*float64(m.PC.L1.Capacity())), 1)
}

// balanceDirty applies dirty-page back pressure at a write-path op
// boundary. In immediate mode that is immediateWriteback. In event
// mode flushing belongs to the write-back daemon; the writing process
// instead parks — dirty throttling, the balance_dirty_pages of this
// VFS — while dirty plus in-flight write-back pages sit at or above
// the high-water mark, and resumes as completion events bring the
// total down. It returns the (possibly advanced) virtual time, which
// the caller charges to the operation: a writer outrunning the device
// pays the stall in its own latency.
func (m *Mount) balanceDirty(at sim.Time) sim.Time {
	p := m.running()
	if p == nil {
		m.immediateWriteback(at)
		return at
	}
	l1 := m.PC.L1
	if l1.Capacity() == 0 {
		return at
	}
	if n := int64(l1.DirtyCount() + l1.WritebackCount()); n > m.stats.DirtyPeakPages {
		m.stats.DirtyPeakPages = n
	}
	high := m.dirtyHighPages()
	if l1.DirtyCount()+l1.WritebackCount() < high {
		return at
	}
	p.WaitUntil(at) // realign before sleeping on the wait list
	m.stats.ThrottleStalls++
	for l1.DirtyCount()+l1.WritebackCount() >= high {
		m.dirtyWaiters = append(m.dirtyWaiters, p)
		p.Park()
	}
	return p.Now()
}

// waitWriteback parks the current process until the daemon's
// in-flight write-back drains (event mode only): those pages are no
// longer dirty but not yet durable, and sync paths must not report
// durability before their completion events fire. It returns the
// (possibly advanced) virtual time.
func (m *Mount) waitWriteback(at sim.Time) sim.Time {
	p := m.running()
	if p == nil || m.PC.L1.WritebackCount() == 0 {
		return at
	}
	p.WaitUntil(at)
	for m.PC.L1.WritebackCount() > 0 {
		m.dirtyWaiters = append(m.dirtyWaiters, p)
		p.Park()
	}
	return p.Now()
}

// stampOwner attributes a request to process p's requester identity
// unless the caller already chose one (the daemon). Without a process
// (immediate mode, loop context) the request stays unattributed.
func stampOwner(req *device.Request, p *sim.Proc) {
	if req.Owner == device.OwnerNone && p != nil {
		req.Owner = p.Owner
	}
}

// submitSync issues one request and blocks until it completes: in
// immediate mode through the device directly, in event mode by
// enqueueing and parking the current process until the completion
// event fires. The returned time includes queueing delay.
func (m *Mount) submitSync(at sim.Time, req device.Request) (sim.Time, error) {
	p := m.running()
	stampOwner(&req, p)
	if p == nil {
		return m.Dev.Submit(at, req)
	}
	p.WaitUntil(at)
	var w *syncWait
	if n := len(m.waitPool); n > 0 {
		w = m.waitPool[n-1]
		m.waitPool = m.waitPool[:n-1]
	} else {
		w = new(syncWait)
		w.complete = w.store
	}
	w.p = p
	m.sub.Submit(p.Now(), req, w.complete)
	p.Park()
	done, err := w.done, w.err
	*w = syncWait{complete: w.complete}
	m.waitPool = append(m.waitPool, w)
	return done, err
}

// syncWait is a pooled blocking submission: the process parked on it
// and the result its completion stores. complete is w.store, bound
// once when the waiter is made, so passing it allocates nothing.
type syncWait struct {
	p        *sim.Proc
	done     sim.Time
	err      error
	complete func(sim.Time, error)
}

// store records the result and resumes the process. The completion is
// its event's last act (Submitter), so p resumes as from its own wake.
func (w *syncWait) store(t sim.Time, err error) {
	w.done, w.err = t, err
	w.p.RunEvent()
}

// submitAsync issues one fire-and-forget request: the device does the
// work but nobody waits. In event mode the arrival is scheduled at
// `at` so queue arrivals stay globally time-ordered even when the
// issuing process has run ahead of the loop clock; onErr, when
// non-nil, runs in loop context if the request eventually fails.
//
// The returned error is only meaningful in immediate mode, where the
// submission is synchronous underneath; in event mode it is always
// nil and failures reach onErr (or just the queue's error counter).
func (m *Mount) submitAsync(at sim.Time, req device.Request, onErr func(error)) error {
	stampOwner(&req, m.running())
	if m.sub == nil {
		_, err := m.Dev.Submit(at, req)
		if err != nil && onErr != nil {
			onErr(err)
		}
		return err
	}
	var a *asyncReq
	if n := len(m.asyncPool); n > 0 {
		a = m.asyncPool[n-1]
		m.asyncPool = m.asyncPool[:n-1]
	} else {
		a = new(asyncReq)
	}
	*a = asyncReq{m: m, at: at, req: req, onErr: onErr}
	m.loop.ScheduleTarget(at, a)
	return nil
}

// asyncReq is a pooled deferred submission: submitAsync schedules it
// as the arrival event (instead of a closure) so journal pushes,
// eviction write-back, and prefetch issue zero allocations per
// request on the common no-error-handler path.
type asyncReq struct {
	m     *Mount
	at    sim.Time
	req   device.Request
	onErr func(error)
}

// RunEvent implements sim.EventTarget: the arrival instant came due,
// submit for real and recycle.
func (a *asyncReq) RunEvent() {
	m, at, req, onErr := a.m, a.at, a.req, a.onErr
	*a = asyncReq{}
	m.asyncPool = append(m.asyncPool, a)
	var done func(sim.Time, error)
	if onErr != nil {
		done = func(_ sim.Time, err error) {
			if err != nil {
				onErr(err)
			}
		}
	}
	m.sub.Submit(at, req, done)
}

// submitBatchSync issues a set of requests and blocks until all of
// them complete, returning the last completion. In immediate mode the
// batch is an elevator pass (device.SubmitBatch); in event mode the
// requests enter the queue together and the configured scheduler
// orders them.
func (m *Mount) submitBatchSync(at sim.Time, reqs []device.Request) (sim.Time, error) {
	if len(reqs) == 0 {
		return at, nil
	}
	p := m.running()
	for i := range reqs {
		stampOwner(&reqs[i], p)
	}
	if p == nil {
		return device.SubmitBatch(m.Dev, at, reqs)
	}
	p.WaitUntil(at)
	remaining := len(reqs)
	var last sim.Time
	var firstErr error
	for _, r := range reqs {
		m.sub.Submit(p.Now(), r, func(t sim.Time, err error) {
			remaining--
			if t > last {
				last = t
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if remaining == 0 {
				p.RunEvent() // last act, as in submitSync
			}
		})
	}
	p.Park()
	return last, firstErr
}

// blockLBA converts a file-system block number to a device LBA.
func blockLBA(block int64) int64 { return block * sectorsPerBlock }

// readBlock reads one metadata block through the cache, returning the
// completion time.
func (m *Mount) readBlock(at sim.Time, block int64) (sim.Time, error) {
	id := fs.MetaPage(block)
	if m.PC.Lookup(id) != cache.Miss {
		return at + m.cfg.HitPerPage, nil
	}
	done, err := m.submitSync(at, device.Request{Op: device.Read, LBA: blockLBA(block), Sectors: sectorsPerBlock})
	if err != nil {
		return at, err
	}
	m.writebackEvictions(done, m.PC.Insert(id, false))
	return done, nil
}

// execSteps executes metadata IOSteps at the given time. Reads block
// the operation; deferred writes dirty cache pages; sync writes go to
// the device, added to the operation's latency when chargeSync is
// true and issued asynchronously otherwise.
func (m *Mount) execSteps(at sim.Time, steps []fs.IOStep, chargeSync bool) (sim.Time, error) {
	now := at
	for _, s := range steps {
		switch {
		case !s.Write:
			var err error
			now, err = m.readBlock(now, s.Block)
			if err != nil {
				return now, err
			}
		case s.Sync && chargeSync:
			done, err := m.submitSync(now, device.Request{Op: device.Write, LBA: blockLBA(s.Block), Sectors: sectorsPerBlock})
			if err != nil {
				return now, err
			}
			now = done
		case s.Sync:
			// Journal pushes nobody waits on: the device does the work
			// asynchronously, delaying later requests. In immediate
			// mode the submission is synchronous underneath, so its
			// error still surfaces to the operation; in event mode an
			// async failure lands in the queue's error counter, as a
			// real fire-and-forget write would.
			if err := m.submitAsync(now, device.Request{Op: device.Write, LBA: blockLBA(s.Block), Sectors: sectorsPerBlock}, nil); err != nil {
				return now, err
			}
		default:
			id := fs.MetaPage(s.Block)
			if !m.PC.MarkDirty(id) {
				m.writebackEvictions(now, m.PC.Insert(id, true))
			}
			now += m.cfg.HitPerPage / 4 // in-memory metadata update
		}
	}
	return now, nil
}

// prefetchSteps executes metadata IOSteps on the prefetch path, where
// nothing may block: reads of non-resident blocks are issued
// fire-and-forget (the block becomes resident immediately, the device
// time it consumes delays later misses), deferred writes dirty cache
// pages, sync writes go to the device asynchronously. A failed read
// leaves (or makes) its block non-resident so a later demand read
// retries the device and surfaces the error; in immediate mode the
// failure also aborts the remaining steps, as the old synchronous
// path did.
func (m *Mount) prefetchSteps(at sim.Time, steps []fs.IOStep) error {
	for _, s := range steps {
		switch {
		case !s.Write:
			id := fs.MetaPage(s.Block)
			if m.PC.Lookup(id) != cache.Miss {
				continue
			}
			err := m.submitAsync(at, device.Request{Op: device.Read, LBA: blockLBA(s.Block), Sectors: sectorsPerBlock},
				func(error) { m.PC.Invalidate(id) })
			if err != nil {
				return err
			}
			m.writebackEvictions(at, m.PC.Insert(id, false))
		case s.Sync:
			m.submitAsync(at, device.Request{Op: device.Write, LBA: blockLBA(s.Block), Sectors: sectorsPerBlock}, nil)
		default:
			id := fs.MetaPage(s.Block)
			if !m.PC.MarkDirty(id) {
				m.writebackEvictions(at, m.PC.Insert(id, true))
			}
		}
	}
	return nil
}

// writebackEvictions asynchronously writes dirty pages evicted from
// the cache. The triggering operation does not wait, but the device
// does the work.
func (m *Mount) writebackEvictions(at sim.Time, evicted []cache.Evicted) {
	for _, ev := range evicted {
		if !ev.Dirty {
			continue
		}
		lba, ok := m.pageLBA(ev.ID)
		if !ok {
			continue
		}
		m.submitAsync(at, device.Request{Op: device.Write, LBA: lba, Sectors: sectorsPerBlock}, nil)
	}
}

// pageLBA resolves a cache page to its device address: metadata pages
// encode the block directly; data pages resolve through the file
// system's map (without charging metadata reads — the mapping was
// resolved when the page entered the cache).
func (m *Mount) pageLBA(id cache.PageID) (int64, bool) {
	if id.File&fs.MetaFileBit != 0 {
		return blockLBA(id.Index), true
	}
	exts, _, err := m.FS.Map(fs.Ino(id.File), id.Index, 1)
	if err != nil || len(exts) == 0 {
		return 0, false
	}
	return blockLBA(exts[0].DiskBlock), true
}

// immediateWriteback is immediate mode's background write-back (setup,
// including trace replay's Setup): once dirty pages reach the
// background threshold, the writebackBatch oldest-dirtied go through
// flushSync. The op that crossed the threshold is not charged for
// the batch; the device is busy with it. In event mode flushing
// belongs to the write-back daemon (flusher).
func (m *Mount) immediateWriteback(at sim.Time) {
	l1 := m.PC.L1
	if l1.Capacity() == 0 || l1.DirtyCount() < m.dirtyThreshold() {
		return
	}
	m.scratch = l1.CollectDirty(m.scratch[:0], writebackBatch)
	// Nobody waits on background write-back, so nobody sees its error;
	// the batch's pages leave the write-back state either way.
	if _, issued, _ := m.flushSync(at, m.scratch); issued > 0 {
		m.stats.WritebackRounds++
		m.stats.WritebackPages += int64(issued)
	}
}

// flushSync writes the given dirty pages synchronously and returns
// the completion time and the number of writes issued. The pages
// transit the write-back state like the daemon's flights — so a
// concurrent daemon wake cannot collect and double-submit them while
// the caller is parked, and a page re-dirtied during the wait stays
// dirty instead of being silently cleaned. Sync paths (SyncAll,
// Fsync) and immediate mode's background write-back share it.
func (m *Mount) flushSync(at sim.Time, ids []cache.PageID) (sim.Time, int, error) {
	l1 := m.PC.L1
	reqs := make([]device.Request, 0, len(ids))
	marked := make([]cache.PageID, 0, len(ids))
	gens := make([]uint64, 0, len(ids))
	for _, id := range ids {
		lba, ok := m.pageLBA(id)
		if !ok {
			l1.Clean(id) // unmappable page: drop the dirty bit
			continue
		}
		// The caller drained in-flight write-back first and collected
		// from the dirty list, so the transition cannot fail; guard
		// anyway rather than double-write.
		gen, ok := l1.MarkWriteback(id)
		if !ok {
			continue
		}
		//fslint:ignore ownerstamp submitBatchSync stamps the running process's Owner one hop below
		reqs = append(reqs, device.Request{Op: device.Write, LBA: lba, Sectors: sectorsPerBlock})
		marked = append(marked, id)
		gens = append(gens, gen)
	}
	done := at
	var err error
	if len(reqs) > 0 {
		// submitBatchSync waits for every completion even when one
		// errors, so the flights below are finished either way.
		done, err = m.submitBatchSync(at, reqs)
	}
	for i, id := range marked {
		l1.EndWriteback(id, gens[i])
	}
	if len(marked) > 0 && m.loop != nil {
		// The write-back population just dropped: let throttled
		// writers re-check (in loop context, as Unpark requires). The
		// mount itself is the event target — no closure per flush.
		m.loop.ScheduleTarget(done, m)
	}
	return done, len(reqs), err
}

// RunEvent implements sim.EventTarget for flushSync's scheduled
// wake-up of the dirty-wait list.
func (m *Mount) RunEvent() { m.wakeDirtyWaiters() }

// SyncAll flushes every dirty page and the file-system journal,
// returning when the device is quiet. Benchmarks call it between
// phases so one phase's deferred work is not charged to the next. In
// event mode it first waits out the daemon's in-flight write-back —
// those pages are neither dirty nor durable until their completion
// events fire.
func (m *Mount) SyncAll(at sim.Time) (sim.Time, error) {
	done, _, err := m.flushSync(m.waitWriteback(at), m.PC.L1.CollectDirty(nil, 0))
	return done, err
}

// --- Path resolution -------------------------------------------------

// splitPath splits "/a/b/c" into components; "" and "/" mean the root.
func splitPath(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// resolve walks path to an inode, charging lookup I/O for components
// missing from the dentry cache.
func (m *Mount) resolve(at sim.Time, path string) (fs.Ino, sim.Time, error) {
	if ino, ok := m.dcache[path]; ok {
		m.stats.DentryHits++
		return ino, at + m.cfg.HitPerPage/4, nil
	}
	m.stats.DentryMisses++
	parts := splitPath(path)
	ino := m.FS.Root()
	now := at
	prefix := ""
	for _, part := range parts {
		prefix += "/" + part
		if cached, ok := m.dcache[prefix]; ok {
			ino = cached
			continue
		}
		next, steps, err := m.FS.Lookup(ino, part)
		if err != nil {
			return 0, now, fmt.Errorf("resolve %q: %w", path, err)
		}
		now, err = m.execSteps(now, steps, false)
		if err != nil {
			return 0, now, err
		}
		m.dcache[prefix] = next
		ino = next
	}
	if path != "" && path != "/" {
		m.dcache["/"+strings.Trim(path, "/")] = ino
	}
	return ino, now, nil
}

// parentOf splits a path into its parent directory inode and leaf
// name.
func (m *Mount) parentOf(at sim.Time, path string) (fs.Ino, string, sim.Time, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return 0, "", at, fmt.Errorf("vfs: empty path: %w", fs.ErrNotExist)
	}
	name := parts[len(parts)-1]
	parentPath := "/" + strings.Join(parts[:len(parts)-1], "/")
	ino, now, err := m.resolve(at, parentPath)
	if err != nil {
		return 0, "", now, err
	}
	return ino, name, now, nil
}
