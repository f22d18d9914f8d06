package workload

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// fsState tracks a fileset's live files during a run.
type fsState struct {
	spec    FileSet
	names   []string // existing file paths (index-addressable)
	nextNew int      // counter for fresh names
	zipf    *sim.Zipf
}

// threadState is one virtual thread. In a closed-loop class it is a
// self-paced loop over the class's flowops; in an open-loop class it
// is one worker of the class's service pool, executing op instances
// its generator dispatched.
type threadState struct {
	spec *ThreadSpec
	// owner is the thread's stable OwnerID: its index in the engine's
	// thread list, assigned in thread-spec declaration order. Probes
	// record per-owner stats under it; the mount submits the thread's
	// I/O as device owner owner+1 (positive, distinct from
	// device.OwnerNone and device.OwnerDaemon), so schedulers can
	// attribute every request to its requester.
	owner   int
	now     sim.Time
	opIdx   int
	iter    int
	cursors map[string]int64 // sequential-read cursors per fileset
	fds     map[string]*vfs.FD
	fdOrder []string // open order, so fd picks are deterministic
	rng     *sim.RNG

	// Open-loop worker state: the class this worker serves (nil for
	// closed loops) and the arrival time of the op instance currently
	// executing — the instant latency is measured from.
	class   *classState
	arrival sim.Time
}

// openLoop reports whether the thread serves an open-loop class.
func (th *threadState) openLoop() bool { return th.class != nil }

// curMap returns the sequential-cursor map ops should use: the
// class's shared map for open-loop workers, the thread's own for
// closed loops.
func (th *threadState) curMap() map[string]int64 {
	if th.class != nil {
		return th.class.cursors
	}
	return th.cursors
}

// classState is one open-loop thread class's shared state: the
// backlog its generator fills and its workers serve, and the class's
// flowop cursor — in an open loop the *sequence* of op instances
// belongs to the class, not to any one worker. Sequential-I/O cursors
// live here too, for the same reason: instances of one logical stream
// land on whichever worker is free, and per-worker cursors would
// re-read the same offsets from every worker. (Baton serialization
// makes the shared maps safe, §4.2.)
type classState struct {
	spec    *ThreadSpec
	rng     *sim.RNG // arrival-time draws
	backlog sim.Backlog[Flowop]
	opIdx   int
	iter    int
	cursors map[string]int64 // class-owned sequential cursors
}

// nextOp advances the class's flowop cursor.
func (cs *classState) nextOp() Flowop {
	return advanceFlowop(cs.spec, &cs.opIdx, &cs.iter)
}

// advanceFlowop returns the flowop at the (opIdx, iter) cursor and
// advances it, honoring Iters. The closed-loop step (per-thread
// cursor) and the open-loop generator (class cursor) share it so the
// two loop disciplines can never diverge on sequence semantics.
func advanceFlowop(spec *ThreadSpec, opIdx, iter *int) Flowop {
	op := spec.Flowops[*opIdx]
	iters := op.Iters
	if iters <= 0 {
		iters = 1
	}
	*iter++
	if *iter >= iters {
		*iter = 0
		*opIdx++
		if *opIdx >= len(spec.Flowops) {
			*opIdx = 0
		}
	}
	return op
}

// dropFD forgets the thread's handle for path, keeping fdOrder in sync.
func (th *threadState) dropFD(path string) {
	if _, ok := th.fds[path]; !ok {
		return
	}
	delete(th.fds, path)
	for i, p := range th.fdOrder {
		if p == path {
			th.fdOrder = append(th.fdOrder[:i], th.fdOrder[i+1:]...)
			break
		}
	}
}

// firstFD returns the least-recently-opened live handle, nil if none.
func (th *threadState) firstFD() (string, *vfs.FD) {
	if len(th.fdOrder) == 0 {
		return "", nil
	}
	path := th.fdOrder[0]
	return path, th.fds[path]
}

// shard is one partition of an Engine's run: a mount, the filesets
// replicated onto it, the threads and open classes placed on it, and
// the counters its processes accumulate. Its processes run on one
// shard of the engine's sim.ShardedLoop under the ordinary one-baton
// rules, so nothing in it is locked.
type shard struct {
	m       *vfs.Mount
	w       *Workload
	rng     *sim.RNG // file-size draws
	sets    map[string]*fsState
	threads []*threadState
	classes []*classState // open-loop classes (generator per entry)
	probe   *Probe
	counter metrics.Counter
	load    metrics.LoadGauge
	runErr  error // first error raised by any proc during Run
}

// setup creates the filesets (directories, preallocated files) and
// flushes all dirty state so the measured phase starts from a clean,
// quiescent device. It returns the virtual time when setup finished.
func (s *shard) setup(at sim.Time) (sim.Time, error) {
	now := at
	for _, name := range s.setNamesSorted() {
		st := s.sets[name]
		spec := st.spec
		if spec.Dir != "" && spec.Dir != "/" {
			// mkdir -p: create every missing component.
			parts := strings.Split(strings.Trim(spec.Dir, "/"), "/")
			prefix := ""
			for _, part := range parts {
				prefix += "/" + part
				done, err := s.m.Mkdir(now, prefix)
				if err != nil && !errors.Is(err, fs.ErrExist) {
					return now, fmt.Errorf("setup fileset %s: %w", name, err)
				}
				if err == nil {
					now = done
				}
			}
		}
		prealloc := int(float64(spec.Entries)*spec.PreallocFrac + 0.5)
		for i := 0; i < prealloc; i++ {
			path := filePath(spec.Dir, name, i)
			fd, done, err := s.m.Create(now, path)
			if err != nil {
				return now, fmt.Errorf("setup fileset %s: %w", name, err)
			}
			now = done
			size := s.fileSize(st)
			if size > 0 {
				done, err = s.m.Write(now, fd, 0, size)
				if err != nil {
					return now, fmt.Errorf("setup fileset %s: %w", name, err)
				}
				now = done
			}
			st.names = append(st.names, path)
		}
		st.nextNew = prealloc
	}
	done, err := s.m.SyncAll(now)
	if err != nil {
		return now, err
	}
	return done, nil
}

// setNamesSorted keeps setup deterministic across map iteration.
func (s *shard) setNamesSorted() []string {
	names := make([]string, 0, len(s.sets))
	for _, fsSet := range s.w.FileSets {
		names = append(names, fsSet.Name)
	}
	return names
}

// fileSize draws a file size from the fileset's distribution.
func (s *shard) fileSize(st *fsState) int64 {
	if st.spec.ParetoAlpha <= 0 {
		return st.spec.MeanSize
	}
	// Pareto with mean m and shape a has xm = m(a-1)/a.
	a := st.spec.ParetoAlpha
	xm := float64(st.spec.MeanSize) * (a - 1) / a
	if xm < 1 {
		xm = 1
	}
	size := int64(s.rng.Pareto(xm, a))
	// Clip the tail at 64x the mean so one draw cannot fill the disk.
	if max := st.spec.MeanSize * 64; size > max {
		size = max
	}
	return size
}

func filePath(dir, set string, i int) string {
	if dir == "" || dir == "/" {
		return fmt.Sprintf("/%s-%05d", set, i)
	}
	return fmt.Sprintf("%s/%s-%05d", dir, set, i)
}

// begin puts the mount into event mode on loop, submitting through
// sub, spawns every thread's process and schedules every class's
// generator at the loop's current time.
func (s *shard) begin(loop *sim.EventLoop, until sim.Time, sub vfs.Submitter) {
	// Each thread and each generator calls finish once as it ends; the
	// last call retires the write-back daemon so the loop can drain.
	finish := s.m.BeginEvents(loop, sub, len(s.threads)+len(s.classes))
	from := loop.Now()
	s.runErr = nil
	// Workers spawn before generators so every idle worker is parked
	// on its class's list before the first arrival fires.
	for _, th := range s.threads {
		th.now = from
		body := s.closedLoop
		if th.openLoop() {
			body = s.workerLoop
		}
		p := loop.Go(from, func(p *sim.Proc) {
			defer finish()
			body(p, th, until, &s.runErr)
		})
		p.Owner = th.owner + 1
	}
	for _, cs := range s.classes {
		loop.ScheduleTarget(from, &generator{
			s: s, cs: cs, loop: loop, next: from, until: until, finish: finish,
		})
	}
}

// end leaves event mode and reports the final virtual time (max over
// threads) and the first error any process raised.
func (s *shard) end() (sim.Time, error) {
	s.m.EndEvents()
	var end sim.Time
	for _, th := range s.threads {
		if th.now > end {
			end = th.now
		}
	}
	return end, s.runErr
}

// closedLoop is the classic self-paced thread body.
func (s *shard) closedLoop(p *sim.Proc, th *threadState, until sim.Time, runErr *error) {
	for th.now < until && *runErr == nil {
		// Align the op's start with the global clock so ops across
		// threads execute in virtual-time order.
		p.WaitUntil(th.now)
		if err := s.step(th); err != nil {
			if *runErr == nil {
				*runErr = err
			}
			return
		}
	}
}

// workerLoop is one open-loop service process: it serves its class's
// backlog, executing op instances in arrival order. Queueing delay
// ahead of service — the open-loop signature — lands in the recorded
// latency because execOp measures from the instance's arrival time.
// At the horizon the worker abandons what is left, which Load()
// reports as offered minus completed — the divergence a closed loop
// cannot show.
func (s *shard) workerLoop(p *sim.Proc, th *threadState, until sim.Time, runErr *error) {
	srv := th.class.backlog.Serve(p)
	for *runErr == nil {
		at, op, ok := srv.Take(&th.now, until)
		if !ok {
			return
		}
		th.arrival = at
		err := s.execOp(th, op)
		s.load.Complete()
		if err != nil {
			if *runErr == nil {
				*runErr = err
			}
			return
		}
	}
}

// generator is an open-loop class's arrival process: it stamps arrival
// times per the class's Arrival spec and puts op instances on the
// class's backlog, which resumes an idle worker. It never waits for
// service completions — that independence is the whole point. It is
// an event target that schedules itself at its next arrival, so it
// costs no process and no goroutine.
type generator struct {
	s           *shard
	cs          *classState
	loop        *sim.EventLoop
	next, until sim.Time
	// due is set once next is an arrival the pending event delivers.
	due    bool
	finish func()
}

// RunEvent implements sim.EventTarget. It delivers the arrivals due
// now, a Burst of them for a burst class, then draws the next gap.
// Once a run error is set or the next arrival falls at or past the
// horizon, it closes the backlog, so idle workers exit.
func (g *generator) RunEvent() {
	s, cs, a := g.s, g.cs, g.cs.spec.Arrival
	if g.due {
		n := 1
		if a.Kind == ArrivalBurst {
			n = a.Burst
		}
		for i := 0; i < n; i++ {
			s.load.Arrive()
			cs.backlog.Put(g.next, cs.nextOp())
		}
	}
	if s.runErr == nil {
		perOp := float64(sim.Second) / a.Rate
		var gap sim.Time
		switch a.Kind {
		case ArrivalPoisson:
			gap = sim.Time(cs.rng.Exponential(perOp))
		case ArrivalUniform:
			gap = sim.Time(perOp)
		case ArrivalBurst:
			gap = sim.Time(float64(a.Burst) * perOp)
		}
		if gap < 1 {
			// A drawn or configured gap below the 1 ns clock resolution
			// must still advance time, or a super-GHz rate would pin
			// `next` forever and the generator would reschedule itself
			// at one instant without end.
			gap = 1
		}
		if g.next += gap; g.next < g.until {
			g.due = true
			g.loop.ScheduleTarget(g.next, g)
			return
		}
	}
	cs.backlog.Close()
	g.finish()
}

// step executes one flowop on one thread, advancing its clock.
func (s *shard) step(th *threadState) error {
	return s.execOp(th, advanceFlowop(th.spec, &th.opIdx, &th.iter))
}

// pickExisting selects a live file, uniform or Zipf.
func (s *shard) pickExisting(th *threadState, st *fsState, zipf bool) (string, bool) {
	n := len(st.names)
	if n == 0 {
		return "", false
	}
	var idx int
	if zipf && st.zipf != nil {
		// The Zipf sampler ranges over spec.Entries ranks, but the
		// live-name list can be smaller (low PreallocFrac, deletes).
		// Folding out-of-range ranks through %n would alias distinct
		// ranks onto the same files and distort the popularity
		// distribution, so redraw instead; after a bounded number of
		// attempts clamp to the least-popular live file to keep the
		// pick O(1) even when almost all mass is out of range.
		r := st.zipf.Next()
		for tries := 0; r >= int64(n) && tries < 64; tries++ {
			r = st.zipf.Next()
		}
		if r >= int64(n) {
			r = int64(n) - 1
		}
		idx = int(r)
	} else {
		idx = th.rng.Intn(n)
	}
	return st.names[idx], true
}

// openFD returns (opening if needed) the thread's handle for path.
func (s *shard) openFD(th *threadState, path string) (*vfs.FD, error) {
	if fd, ok := th.fds[path]; ok {
		return fd, nil
	}
	fd, done, err := s.m.Open(th.now, path)
	if err != nil {
		return nil, err
	}
	th.now = done
	th.fds[path] = fd
	th.fdOrder = append(th.fdOrder, path)
	return fd, nil
}

// execOp performs one flowop instance. Errors of the benign kind
// (create racing delete within the workload's own churn) are counted,
// not fatal. moved accumulates the bytes the op actually transferred
// (a whole-file read counts the whole file, a clamped read counts the
// clamped length), which is what the byte counter and the probe
// report.
func (s *shard) execOp(th *threadState, op Flowop) error {
	start := th.now + th.spec.PerOpOverhead
	if op.Kind == OpThink {
		th.now = start + op.Think
		return nil
	}
	st := s.sets[op.FileSet]
	var done sim.Time
	var err error
	var tPath string
	var tOff int64
	var moved int64
	switch op.Kind {
	case OpReadRand, OpReadSeq, OpReadWholeFile:
		path, ok := s.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		var fd *vfs.FD
		th.now = start
		fd, err = s.openFD(th, path)
		if err != nil {
			break
		}
		start = th.now
		tPath = path
		switch op.Kind {
		case OpReadRand:
			size := fd.Size()
			if size <= op.IOSize {
				moved, done, err = s.m.Read(start, fd, 0, op.IOSize)
				break
			}
			slots := (size - op.IOSize) / op.IOSize
			off := th.rng.Int63n(slots+1) * op.IOSize
			tOff = off
			moved, done, err = s.m.Read(start, fd, off, op.IOSize)
		case OpReadSeq:
			cursors := th.curMap()
			cur := cursors[path]
			if cur >= fd.Size() {
				cur = 0
			}
			tOff = cur
			moved, done, err = s.m.Read(start, fd, cur, op.IOSize)
			if err == nil {
				// Advance by the bytes actually read: an errored or
				// short read must not walk the cursor past EOF between
				// resets.
				cursors[path] = cur + moved
			}
		case OpReadWholeFile:
			now := start
			var n int64
			for off := int64(0); off < fd.Size(); off += op.IOSize {
				n, now, err = s.m.Read(now, fd, off, op.IOSize)
				if err != nil || n == 0 {
					break
				}
				moved += n
			}
			done = now
		}
	case OpWriteRand, OpWriteSeq, OpAppend:
		path, ok := s.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		var fd *vfs.FD
		th.now = start
		fd, err = s.openFD(th, path)
		if err != nil {
			break
		}
		start = th.now
		tPath = path
		switch op.Kind {
		case OpWriteRand:
			size := fd.Size()
			var off int64
			if size > op.IOSize {
				off = th.rng.Int63n((size-op.IOSize)/op.IOSize+1) * op.IOSize
			}
			tOff = off
			done, err = s.m.Write(start, fd, off, op.IOSize)
			if err == nil {
				moved = op.IOSize
			}
		case OpWriteSeq:
			cursors := th.curMap()
			cur := cursors[path]
			if cur >= fd.Size() {
				cur = 0
			}
			tOff = cur
			done, err = s.m.Write(start, fd, cur, op.IOSize)
			if err == nil {
				// VFS writes extend the file rather than writing short,
				// so a successful write moved the full IOSize; a failed
				// one must leave the cursor where it was.
				moved = op.IOSize
				cursors[path] = cur + op.IOSize
			}
		case OpAppend:
			tOff = fd.Size()
			done, err = s.m.Write(start, fd, fd.Size(), op.IOSize)
			if err == nil {
				moved = op.IOSize
			}
		}
	case OpCreate:
		path := filePath(st.spec.Dir, st.spec.Name, st.nextNew)
		tPath = path
		st.nextNew++
		var fd *vfs.FD
		fd, done, err = s.m.Create(start, path)
		if err == nil {
			st.names = append(st.names, path)
			if st.spec.MeanSize > 0 {
				size := s.fileSize(st)
				done, err = s.m.Write(done, fd, 0, size)
				if err == nil {
					moved = size
				}
			}
		}
	case OpDelete:
		if len(st.names) == 0 {
			th.now = start
			return nil
		}
		idx := th.rng.Intn(len(st.names))
		path := st.names[idx]
		tPath = path
		st.names[idx] = st.names[len(st.names)-1]
		st.names = st.names[:len(st.names)-1]
		for _, t := range s.threads {
			t.dropFD(path)
			delete(t.cursors, path)
		}
		for _, cs := range s.classes {
			delete(cs.cursors, path)
		}
		done, err = s.m.Unlink(start, path)
	case OpStat:
		path, ok := s.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		tPath = path
		_, done, err = s.m.Stat(start, path)
	case OpOpen:
		path, ok := s.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		th.now = start
		_, err = s.openFD(th, path)
		done = th.now
	case OpClose:
		// Close the least-recently-opened handle: map iteration order
		// would make the choice (and thus all timings) nondeterministic.
		if path, fd := th.firstFD(); fd != nil {
			s.m.Close(fd)
			th.dropFD(path)
		}
		done = start
	case OpFsync:
		_, target := th.firstFD()
		if target == nil {
			th.now = start
			return nil
		}
		done, err = s.m.Fsync(start, target)
	case OpMkdir:
		path := fmt.Sprintf("%s/d-%06d", st.spec.Dir, st.nextNew)
		st.nextNew++
		done, err = s.m.Mkdir(start, path)
	case OpReadDir:
		dir := st.spec.Dir
		if dir == "" {
			dir = "/"
		}
		_, done, err = s.m.ReadDir(start, dir)
	default:
		return fmt.Errorf("workload: unimplemented op %v", op.Kind)
	}
	if err != nil {
		s.counter.Errors++
		// Benign errors advance time minimally and continue; the
		// engine is a load generator, not a correctness checker.
		th.now = start + sim.Microsecond
		return nil
	}
	if done < start {
		done = start
	}
	s.counter.Ops++
	s.counter.Bytes += moved
	recStart := start
	if th.openLoop() {
		// Open-loop latency runs from queue entry, not service start:
		// the time an instance waited for a free worker is exactly the
		// saturation signal a closed loop self-throttles away.
		recStart = th.arrival
	}
	s.probe.record(th.owner, op.Kind, tPath, tOff, moved, recStart, done)
	th.now = done
	return nil
}
