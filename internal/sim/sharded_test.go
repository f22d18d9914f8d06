package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// shardedTrace runs a fixed cross-shard ping-pong workload and
// returns each shard's (label, time) execution trace. Two shards
// exchange mail every round; a third shard, on no declared edge, runs
// a dense local event train free of the pair's barriers. Traces are
// per-shard — shards execute concurrently inside a window, so a
// combined slice would race.
func shardedTrace(lookahead Time) [3][]string {
	sl := NewShardedLoop(0, [][]int{{1}, {0}, nil}, lookahead)
	var trace [3][]string
	note := func(shard int, what string, at Time) {
		trace[shard] = append(trace[shard], fmt.Sprintf("%s @%d", what, at))
	}

	// Shard 2: a dense local event chain, no cross-shard traffic.
	var tick func()
	ticks := 0
	tick = func() {
		now := sl.Shard(2).Now()
		note(2, "tick", now)
		if ticks++; ticks < 40 {
			sl.Shard(2).Schedule(now+3, tick)
		}
	}
	sl.Shard(2).Schedule(0, tick)

	// Shards 0 and 1: ping-pong through the mailbox. Each delivery
	// fires several same-time sends so the (time, src, seq) merge
	// order is exercised.
	rounds := 0
	var ping func(me, peer int) func()
	ping = func(me, peer int) func() {
		return func() {
			now := sl.Shard(me).Now()
			note(me, "ping", now)
			if rounds++; rounds >= 12 {
				return
			}
			for i := 0; i < 3; i++ {
				i := i
				sl.Send(me, peer, now+lookahead, func() {
					note(peer, fmt.Sprintf("mail%d", i), sl.Shard(peer).Now())
				})
			}
			sl.Send(me, peer, now+lookahead, ping(peer, me))
		}
	}
	sl.Shard(0).Schedule(5, ping(0, 1))
	sl.Run()
	return trace
}

func TestShardedLoopDeterministicTrace(t *testing.T) {
	first := shardedTrace(10)
	for i := 0; i < 5; i++ {
		if got := shardedTrace(10); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", i, got, first)
		}
	}
	for i, tr := range first {
		if len(tr) == 0 {
			t.Fatalf("shard %d produced an empty trace", i)
		}
	}
}

func TestShardedLoopRunsAllEvents(t *testing.T) {
	sl := NewShardedLoop(0, make([][]int, 4), 5)
	ran := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		for k := 0; k < 25; k++ {
			sl.Shard(i).Schedule(Time(k*7), func() { ran[i]++ })
		}
	}
	sl.Run()
	for i, n := range ran {
		if n != 25 {
			t.Fatalf("shard %d ran %d of 25 events", i, n)
		}
	}
}

func TestShardedLoopSendClampsToLookahead(t *testing.T) {
	sl := NewShardedLoop(0, [][]int{{1}, nil}, 100)
	var deliveredAt Time
	sl.Shard(0).Schedule(50, func() {
		// Ask for delivery in the past; the lookahead contract clamps
		// it to now+lookahead.
		sl.Send(0, 1, 0, func() { deliveredAt = sl.Shard(1).Now() })
	})
	sl.Run()
	if deliveredAt != 150 {
		t.Fatalf("delivery at %d, want clamped 150", deliveredAt)
	}
}

func TestShardedLoopProcsPerShard(t *testing.T) {
	sl := NewShardedLoop(0, make([][]int, 2), Time(Millisecond))
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		sl.Shard(i).Go(0, func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Sleep(Time(Microsecond) * Time(i+1))
			}
			ends[i] = p.Now()
		})
	}
	sl.Run()
	if ends[0] != 10*Time(Microsecond) || ends[1] != 20*Time(Microsecond) {
		t.Fatalf("proc end times %v", ends)
	}
}

func TestShardedLoopSingleShard(t *testing.T) {
	// One shard degenerates to a plain loop: same events, same order.
	sl := NewShardedLoop(0, [][]int{nil}, 1)
	var got []Time
	sl.Shard(0).Go(0, func(p *Proc) {
		for k := 0; k < 5; k++ {
			got = append(got, p.Sleep(10))
		}
	})
	sl.Run()
	want := []Time{10, 20, 30, 40, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
