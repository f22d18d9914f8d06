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
// event-driven runs a pdflush-style daemon process ages them out
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

// Config tunes the software costs of the stack.
type Config struct {
	// SyscallOverhead is charged once per VFS operation (entry,
	// argument checking, fd lookup).
	SyscallOverhead sim.Time
	// HitPerPage is the cost of delivering one resident page
	// (lookup + copy to the user buffer).
	HitPerPage sim.Time
	// L2HitPerPage is the cost of promoting and delivering a page
	// from the flash tier.
	L2HitPerPage sim.Time
	// DirtyRatio triggers write-back when dirty pages exceed this
	// fraction of L1 capacity (the background threshold: an op's
	// write-back batch in immediate mode, the daemon in event mode).
	DirtyRatio float64
	// DirtyHighRatio is the dirty-throttling high-water mark for
	// event-driven runs: a write-path operation parks its process while
	// dirty + in-flight write-back pages are at or above this fraction
	// of L1 capacity, resuming on write-back completions. <= DirtyRatio
	// selects 2x DirtyRatio (0.40 under DefaultConfig).
	DirtyHighRatio float64
	// WritebackBatch is the number of pages flushed per write-back
	// round.
	WritebackBatch int
	// WritebackInterval is the write-back daemon's wake period in
	// event-driven runs (<= 0 selects 500 ms). The daemon is the
	// pdflush of this stack: a simulated process that wakes
	// periodically, ages out the oldest-dirtied pages in batches, and
	// competes for the device queue under its own identity
	// (device.OwnerDaemon).
	WritebackInterval sim.Time
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
		SyscallOverhead:   2 * sim.Microsecond,
		HitPerPage:        1500 * sim.Nanosecond,
		L2HitPerPage:      90 * sim.Microsecond,
		DirtyRatio:        0.20,
		DirtyHighRatio:    0.40,
		WritebackBatch:    256,
		WritebackInterval: 500 * sim.Millisecond,
		AtimeUpdates:      true,
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
	// cur is the process currently holding the baton. Every yield
	// point restores it (together with curOwner) on resume, so nested
	// blocking submissions inside one VFS call chain stay bound to
	// their own process.
	cur *sim.Proc
	// curOwner is the requester identity stamped on requests the
	// current process submits (device.OwnerNone outside event mode),
	// so schedulers and fairness stats can attribute every I/O. It is
	// restored alongside cur at every yield point: while a process is
	// parked, another thread's SetProc rebinds both.
	curOwner int
	// flusherStop tells the write-back daemon to exit at its next
	// wake, letting the event loop drain after the workload finishes.
	flusherStop bool
	// dirtyWaiters are processes parked on dirty/write-back state —
	// throttled writers, SyncAll, Fsync — in park order. Every
	// write-back completion wakes them once each to re-check.
	dirtyWaiters []*sim.Proc
}

// New mounts filesystem fsys on dev behind the cache hierarchy pc.
func New(fsys fs.FileSystem, dev device.Device, pc *cache.Hierarchy, cfg Config) *Mount {
	if cfg.WritebackBatch <= 0 {
		cfg.WritebackBatch = 256
	}
	if cfg.WritebackInterval <= 0 {
		cfg.WritebackInterval = 500 * sim.Millisecond
	}
	if cfg.DirtyHighRatio <= cfg.DirtyRatio {
		// The high-water mark must sit above the background threshold,
		// or writers would park below the point where the daemon even
		// starts flushing.
		cfg.DirtyHighRatio = 2 * cfg.DirtyRatio
	}
	if cfg.DirtyHighRatio <= 0 {
		cfg.DirtyHighRatio = 0.40
	}
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
// queue on another shard), the write-back daemon starts as a
// simulated process, and subsequent operations must run inside
// processes registered with SetProc. The workload and trace engines
// call it at the start of every measured run.
func (m *Mount) BeginEvents(loop *sim.EventLoop, sub Submitter) {
	m.loop = loop
	m.sub = sub
	m.flusherStop = false
	loop.Go(loop.Now(), m.flusherMain)
}

// NewQueue builds a device queue per this mount's configuration
// (scheduler, depth) on loop, without entering event mode. Engines
// build their queues with it before any mount enters event mode, so a
// bad scheduler fails before a write-back daemon is spawned.
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
	m.loop, m.cur = nil, nil
	m.sub = nil
	m.curOwner = device.OwnerNone
	m.flusherStop = true
	m.dirtyWaiters = nil
}

// InEvents reports whether the mount is in event mode.
func (m *Mount) InEvents() bool { return m.sub != nil }

// SetProc binds subsequent operations to process p, submitting I/O as
// the given requester identity (a positive owner id; the engine uses
// thread index + 1). The engine calls it whenever a virtual thread
// regains the baton.
func (m *Mount) SetProc(p *sim.Proc, owner int) { m.cur, m.curOwner = p, owner }

// StopWriteback tells the write-back daemon to exit at its next wake.
// The engine calls it when the last workload thread finishes so the
// event loop can drain; pages still dirty stay dirty (a caller
// wanting durability runs SyncAll afterwards).
func (m *Mount) StopWriteback() { m.flusherStop = true }

// --- Write-back daemon and dirty throttling --------------------------

// flusherMain is the write-back daemon: the pdflush of this stack. It
// wakes every WritebackInterval of virtual time and, while dirty
// pages exceed the background threshold (DirtyRatio), retires them
// oldest-dirtied first in WritebackBatch-sized bursts submitted under
// its own identity (device.OwnerDaemon). Flushed pages sit in the
// write-back state until their completion events fire — only then do
// they become clean — so the daemon genuinely competes with workload
// threads for the device instead of flushing for free at op
// boundaries.
func (m *Mount) flusherMain(p *sim.Proc) {
	for {
		p.Sleep(m.cfg.WritebackInterval)
		if m.flusherStop || m.sub == nil {
			return
		}
		m.flusherRound(p.Now())
		// Unmappable pages are cleaned without a completion event;
		// give anyone parked on dirty state a chance to re-check.
		m.wakeDirtyWaiters()
	}
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
	m.scratch = l1.CollectDirty(m.scratch[:0], m.cfg.WritebackBatch)
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

// dirtyHighPages is the throttling high-water mark in pages.
func (m *Mount) dirtyHighPages() int {
	high := int(m.cfg.DirtyHighRatio * float64(m.PC.L1.Capacity()))
	if high < 1 {
		high = 1
	}
	return high
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
	if m.sub == nil || m.cur == nil {
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
	p, owner := m.cur, m.curOwner
	p.WaitUntil(at) // realign before sleeping on the wait list
	m.cur, m.curOwner = p, owner
	m.stats.ThrottleStalls++
	for l1.DirtyCount()+l1.WritebackCount() >= high {
		m.dirtyWaiters = append(m.dirtyWaiters, p)
		p.Park()
		m.cur, m.curOwner = p, owner
	}
	return p.Now()
}

// waitWriteback parks the current process until the daemon's
// in-flight write-back drains (event mode only): those pages are no
// longer dirty but not yet durable, and sync paths must not report
// durability before their completion events fire. It returns the
// (possibly advanced) virtual time.
func (m *Mount) waitWriteback(at sim.Time) sim.Time {
	if m.sub == nil || m.cur == nil || m.PC.L1.WritebackCount() == 0 {
		return at
	}
	p, owner := m.cur, m.curOwner
	p.WaitUntil(at)
	m.cur, m.curOwner = p, owner
	for m.PC.L1.WritebackCount() > 0 {
		m.dirtyWaiters = append(m.dirtyWaiters, p)
		p.Park()
		m.cur, m.curOwner = p, owner
	}
	return p.Now()
}

// stampOwner attributes a request to the current process's requester
// identity unless the caller already chose one (the daemon).
func (m *Mount) stampOwner(req *device.Request) {
	if req.Owner == device.OwnerNone {
		req.Owner = m.curOwner
	}
}

// submitSync issues one request and blocks until it completes: in
// immediate mode through the device directly, in event mode by
// enqueueing and parking the current process until the completion
// event fires. The returned time includes queueing delay.
func (m *Mount) submitSync(at sim.Time, req device.Request) (sim.Time, error) {
	m.stampOwner(&req)
	if m.sub == nil || m.cur == nil {
		return m.Dev.Submit(at, req)
	}
	p, owner := m.cur, m.curOwner
	p.WaitUntil(at)
	m.cur, m.curOwner = p, owner // restore after a potential yield
	var done sim.Time
	var rerr error
	m.sub.Submit(p.Now(), req, func(t sim.Time, err error) {
		done, rerr = t, err
		// The completion is its event's last act (Submitter), so p
		// resumes as from its own wake.
		p.RunEvent()
	})
	p.Park()
	m.cur, m.curOwner = p, owner
	return done, rerr
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
	m.stampOwner(&req)
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
	for i := range reqs {
		m.stampOwner(&reqs[i])
	}
	if m.sub == nil || m.cur == nil {
		return device.SubmitBatch(m.Dev, at, reqs)
	}
	p, owner := m.cur, m.curOwner
	p.WaitUntil(at)
	m.cur, m.curOwner = p, owner
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
	m.cur, m.curOwner = p, owner
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
// background threshold, the WritebackBatch oldest-dirtied go through
// flushSync. The op that crossed the threshold is not charged for
// the batch; the device is busy with it. In event mode flushing
// belongs to the write-back daemon (flusherMain).
func (m *Mount) immediateWriteback(at sim.Time) {
	l1 := m.PC.L1
	if l1.Capacity() == 0 || l1.DirtyCount() < m.dirtyThreshold() {
		return
	}
	m.scratch = l1.CollectDirty(m.scratch[:0], m.cfg.WritebackBatch)
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
		//fslint:ignore ownerstamp submitBatchSync stamps the caller's identity one hop below
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
