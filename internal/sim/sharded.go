package sim

import "sort"

// ShardedLoop runs N EventLoop shards in parallel under conservative
// synchronization over a declared communication graph — the classic
// Chandy-Misra-Bryant discipline specialized to this kernel's
// one-baton loops.
//
// Each shard owns a full EventLoop (heap, clock, baton) and runs on
// its own goroutine, so shards genuinely execute on separate cores.
// The caller declares which shards may mail which; lookahead is the
// minimum virtual latency of any cross-shard interaction. A
// coordinator repeatedly gives each shard a safe horizon — the
// earliest time any of its declared senders could still deliver mail
// (see Run) — and the shard runs freely (in parallel with the others)
// up to it. At the barrier the coordinator exchanges mail and
// recomputes the horizons. Within a shard, ordering is the usual
// exact (time, sequence) order; determinism is therefore preserved
// per-shard, and cross-shard mail is merged deterministically (below).
// A shard with no declared senders is released once and runs its heap
// dry, so a graph with no edges runs every shard with no barriers.
//
// Cross-shard events go through per-shard outboxes drained at the
// barrier in (delivery time, source shard, source sequence) order —
// a total order independent of goroutine scheduling, so the
// destination loop assigns tie-breaking sequence numbers identically
// on every run. Send clamps delivery below now+lookahead up to
// now+lookahead, mirroring Schedule's past-clamping.
//
// The race detector sees a sound happens-before structure: the only
// cross-goroutine edges are the run/done barrier channels, and all
// coordinator access to shard state happens strictly between a
// shard's done signal and its next run signal.
type ShardedLoop struct {
	lookahead Time
	shards    []*loopShard

	// The declared topology: senders[dst] lists the shards allowed to
	// Send to dst, and allowed[src][dst] guards the contract at Send
	// time — the horizon math is only sound for declared edges.
	senders [][]int
	allowed [][]bool

	// Scratch buffers reused across windows so the barrier itself
	// allocates nothing in steady state.
	routeBuf []routedMail
	eot      []Time // earliest possible future send, per shard
	horizon  []Time // per-shard safe horizon (earliest input time)
}

// loopShard is one shard: its loop, its barrier channels, and the
// outbox its in-window code appends cross-shard sends to.
type loopShard struct {
	id     int
	loop   *EventLoop
	run    chan Time     // coordinator -> shard: run events before W
	done   chan struct{} // shard -> coordinator: window finished
	outbox []mail
}

// mail is one cross-shard event awaiting barrier delivery.
type mail struct {
	dst int
	at  Time
	fn  func()
}

// routedMail is a mail item tagged with its (source, outbox index)
// origin for the deterministic barrier merge.
type routedMail struct {
	mail
	src, idx int
}

// NewShardedLoop returns len(edges) shards whose clocks start at the
// given time. edges[src] lists every dst that src may Send to; Send on
// any other edge panics, and an empty list (or nil) means the shard
// never sends. lookahead is the minimum cross-shard latency the caller
// guarantees (clamped to at least 1 ns — a zero lookahead could never
// advance a horizon).
func NewShardedLoop(start Time, edges [][]int, lookahead Time) *ShardedLoop {
	n := len(edges)
	if n < 1 {
		panic("sim: sharded loop needs at least one shard")
	}
	if lookahead < 1 {
		lookahead = 1
	}
	sl := &ShardedLoop{
		lookahead: lookahead,
		senders:   make([][]int, n),
		allowed:   make([][]bool, n),
		eot:       make([]Time, n),
		horizon:   make([]Time, n),
	}
	for src := range sl.allowed {
		sl.allowed[src] = make([]bool, n)
	}
	for src, dsts := range edges {
		for _, dst := range dsts {
			if dst < 0 || dst >= n {
				panic("sim: topology edge to unknown shard")
			}
			if dst == src {
				panic("sim: topology self-edge (local events need no mailbox)")
			}
			if sl.allowed[src][dst] {
				panic("sim: duplicate topology edge")
			}
			sl.allowed[src][dst] = true
			sl.senders[dst] = append(sl.senders[dst], src)
		}
	}
	for i := 0; i < n; i++ {
		sl.shards = append(sl.shards, &loopShard{
			id:   i,
			loop: NewEventLoop(start),
			run:  make(chan Time),
			done: make(chan struct{}),
		})
	}
	return sl
}

// Shard returns shard i's event loop. Before Run, the caller seeds it
// (spawn procs, schedule events) from its own goroutine; during Run,
// only code executing on shard i may touch it.
func (sl *ShardedLoop) Shard(i int) *EventLoop { return sl.shards[i].loop }

// Send schedules fn on shard dst at virtual time at, from code
// running on shard src, over an edge declared to NewShardedLoop.
// Delivery below src's now+lookahead is clamped up to it — the
// lookahead contract is what makes the horizons safe. The event is
// buffered in src's outbox and delivered at the next barrier;
// buffering is safe precisely because the clamped delivery time can
// never fall inside dst's current horizon.
func (sl *ShardedLoop) Send(src, dst int, at Time, fn func()) {
	if !sl.allowed[src][dst] {
		panic("sim: Send on an edge not declared in the topology")
	}
	s := sl.shards[src]
	if min := s.loop.Now() + sl.lookahead; at < min {
		at = min
	}
	s.outbox = append(s.outbox, mail{dst: dst, at: at, fn: fn})
}

// maxTime is the open horizon a shard gets when its inputs can never
// produce earlier mail (e.g. no declared senders).
const maxTime = Time(1<<63 - 1)

// Run executes all shards to completion: rounds advance until no
// shard has a pending event and no mail is in flight. Like
// EventLoop.Run, procs parked with no arranged wake-up are the
// caller's bug — they do not keep Run alive.
//
// Each round computes, for each shard j, EOT(j), a lower bound on the
// timestamp of any mail j can still produce: j's code only runs
// inside an event, its earliest future event is min(next_j, earliest
// incoming mail), and every Send is clamped to now+lookahead, so
//
//	EOT(j) = min(next_j, min over k∈senders(j) EOT(k)) + lookahead
//
// This is a fixpoint; starting from EOT(j) = next_j + lookahead and
// relaxing n times converges because each relaxation can only pull a
// value down toward the global minimum plus lookahead, never below it
// (lookahead ≥ 1 keeps cycles from ratcheting downward). Shard i's
// safe horizon is then its earliest-input-time
//
//	horizon(i) = min over k∈senders(i) EOT(k)
//
// — every event before it is causally independent of all future
// mail. The shard holding the global minimum next-event time always
// satisfies horizon > next (its inputs' EOT is at least
// global-min + lookahead), so every round makes progress. Shards with
// no event inside their horizon are not released at all: they skip
// the channel round-trip entirely, which is what keeps hot-device
// topologies from barrier-stalling quiet thread shards.
//
// The released set and every horizon are pure functions of heap
// state, so the schedule — and with it the (at, src, idx) merge order
// of same-timestamp mail — is identical on every run regardless of
// GOMAXPROCS or goroutine interleaving.
func (sl *ShardedLoop) Run() {
	for _, s := range sl.shards {
		go s.serve()
	}
	n := len(sl.shards)
	for {
		sl.deliver()
		if !sl.pending() {
			break
		}
		for j, s := range sl.shards {
			if t, ok := s.loop.NextTime(); ok {
				sl.eot[j] = t + sl.lookahead
			} else {
				sl.eot[j] = maxTime
			}
		}
		for round := 0; round < n; round++ {
			changed := false
			for j := range sl.shards {
				if in := sl.earliestInput(j); in != maxTime && in+sl.lookahead < sl.eot[j] {
					sl.eot[j] = in + sl.lookahead
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		released := 0
		for i, s := range sl.shards {
			w := sl.earliestInput(i)
			sl.horizon[i] = 0
			if t, ok := s.loop.NextTime(); ok && t < w {
				sl.horizon[i] = w
				s.run <- w
				released++
			}
		}
		if released == 0 {
			panic("sim: topology window made no progress")
		}
		for i, s := range sl.shards {
			if sl.horizon[i] != 0 {
				<-s.done
			}
		}
	}
	for _, s := range sl.shards {
		close(s.run)
	}
	for _, s := range sl.shards {
		<-s.done
	}
}

// earliestInput is the minimum EOT over shard j's declared senders:
// no mail can reach j before it (maxTime when j has no senders).
func (sl *ShardedLoop) earliestInput(j int) Time {
	in := maxTime
	for _, k := range sl.senders[j] {
		if sl.eot[k] < in {
			in = sl.eot[k]
		}
	}
	return in
}

// serve is a shard goroutine: run each granted window, signal the
// barrier, repeat until the coordinator closes the run channel.
func (s *loopShard) serve() {
	for w := range s.run {
		s.loop.RunBefore(w)
		s.done <- struct{}{}
	}
	s.done <- struct{}{}
}

// deliver drains every outbox into the destination heaps in
// (delivery time, source shard, source sequence) order. Sorting by
// that total key before scheduling means destination loops assign
// their tie-breaking sequence numbers in an order no goroutine
// interleaving can influence. Runs in coordinator context, between
// barriers.
func (sl *ShardedLoop) deliver() {
	all := sl.routeBuf[:0]
	for _, s := range sl.shards {
		for i, m := range s.outbox {
			all = append(all, routedMail{mail: m, src: s.id, idx: i})
		}
		s.outbox = s.outbox[:0]
	}
	if len(all) == 0 {
		return
	}
	// The key is total — (at, src, idx) never ties — so the sorted
	// order is a unique permutation.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.idx < b.idx
	})
	for _, m := range all {
		sl.shards[m.dst].loop.Schedule(m.at, m.fn)
	}
	// Keep the buffer for the next window, dropping closure refs so
	// delivered events are collectable once they run.
	for i := range all {
		all[i] = routedMail{}
	}
	sl.routeBuf = all[:0]
}

// pending reports whether any shard has an event left to run.
func (sl *ShardedLoop) pending() bool {
	for _, s := range sl.shards {
		if s.loop.Len() > 0 {
			return true
		}
	}
	return false
}
