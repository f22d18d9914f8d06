package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// starTrace runs a hub-and-spoke workload under a declared star
// topology: three spoke shards fire same-timestamp requests into one
// hub shard, which answers each on its declared back-edge. Returns
// per-shard (label, time) traces.
func starTrace(lookahead Time) [4][]string {
	const hub = 3
	sl := NewShardedLoop(0, [][]int{{hub}, {hub}, {hub}, {0, 1, 2}}, lookahead)
	var trace [4][]string
	note := func(shard int, what string, at Time) {
		trace[shard] = append(trace[shard], fmt.Sprintf("%s @%d", what, at))
	}
	for spoke := 0; spoke < 3; spoke++ {
		spoke := spoke
		rounds := 0
		var fire func()
		fire = func() {
			now := sl.Shard(spoke).Now()
			note(spoke, "req", now)
			if rounds++; rounds > 8 {
				return
			}
			// Every spoke sends at the same timestamps each round, so the
			// hub's (at, src, idx) merge order is what keeps this
			// deterministic.
			sl.Send(spoke, hub, now+lookahead, func() {
				hubNow := sl.Shard(hub).Now()
				note(hub, fmt.Sprintf("serve%d", spoke), hubNow)
				sl.Send(hub, spoke, hubNow+lookahead, fire)
			})
		}
		sl.Shard(spoke).Schedule(0, fire)
	}
	sl.Run()
	return trace
}

func TestShardedLoopTopologyDeterministicTrace(t *testing.T) {
	first := starTrace(7)
	for i := 0; i < 5; i++ {
		if got := starTrace(7); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", i, got, first)
		}
	}
	for i, tr := range first {
		if len(tr) == 0 {
			t.Fatalf("shard %d produced an empty trace", i)
		}
	}
}

// starTraceUniform is starTrace(7) as the retired all-to-all uniform
// window (one global horizon of min next-event time + lookahead)
// scheduled it.
var starTraceUniform = [4][]string{
	{"req @0", "req @14", "req @28", "req @42", "req @56", "req @70", "req @84", "req @98", "req @112"},
	{"req @0", "req @14", "req @28", "req @42", "req @56", "req @70", "req @84", "req @98", "req @112"},
	{"req @0", "req @14", "req @28", "req @42", "req @56", "req @70", "req @84", "req @98", "req @112"},
	{
		"serve0 @7", "serve1 @7", "serve2 @7", "serve0 @21", "serve1 @21", "serve2 @21",
		"serve0 @35", "serve1 @35", "serve2 @35", "serve0 @49", "serve1 @49", "serve2 @49",
		"serve0 @63", "serve1 @63", "serve2 @63", "serve0 @77", "serve1 @77", "serve2 @77",
		"serve0 @91", "serve1 @91", "serve2 @91", "serve0 @105", "serve1 @105", "serve2 @105",
	},
}

func TestShardedLoopTopologyMatchesUniform(t *testing.T) {
	// Per-shard horizons change scheduling only, never simulated times
	// or per-shard event order.
	if got := starTrace(7); !reflect.DeepEqual(got, starTraceUniform) {
		t.Fatalf("topology trace diverged from uniform-window trace:\n%v\nvs\n%v", got, starTraceUniform)
	}
}

func TestShardedLoopTopologyPanicsOnUndeclaredEdge(t *testing.T) {
	for _, edges := range [][][]int{
		{{1}, {0}, nil},
		make([][]int, 3), // the empty graph: no shard may Send at all
	} {
		func() {
			sl := NewShardedLoop(0, edges, 5)
			defer func() {
				if recover() == nil {
					t.Errorf("Send on an edge undeclared in %v did not panic", edges)
				}
			}()
			// The edge check guards Send itself, before any loop machinery runs.
			sl.Send(0, 2, 10, func() {})
		}()
	}
}

func TestShardedLoopTopologyValidation(t *testing.T) {
	for _, edges := range [][][]int{
		{},            // no shards
		{{2}, nil},    // destination out of range
		{{0}, nil},    // self edge
		{{1, 1}, nil}, // duplicate edge
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardedLoop(%v) did not panic", edges)
				}
			}()
			NewShardedLoop(0, edges, 5)
		}()
	}
}

// TestShardedLoopTopologyChainForwarding exercises the case the
// single-hop horizon bound gets wrong: shard 0 sends to shard 1,
// which immediately forwards to shard 2, so shard 2 receives mail at
// g+2*lookahead even though shard 1's own next local event is far in
// the future. The EOT fixpoint must hold shard 2 back; if it ran
// ahead, the forwarded mail would arrive in its past and either panic
// or silently reorder.
func TestShardedLoopTopologyChainForwarding(t *testing.T) {
	const la = 10
	sl := NewShardedLoop(0, [][]int{{1}, {2}, nil}, la)
	var got []Time
	// Shard 2 has a dense local train the forwarded mail must interleave
	// with deterministically.
	for k := Time(0); k < 100; k += 3 {
		k := k
		sl.Shard(2).Schedule(k, func() { _ = k })
	}
	sl.Shard(0).Schedule(0, func() {
		sl.Send(0, 1, la, func() {
			sl.Send(1, 2, sl.Shard(1).Now()+la, func() {
				got = append(got, sl.Shard(2).Now())
			})
		})
	})
	// Shard 1's only local event is far out: a single-hop bound would
	// release shard 2 through time 1000+la and lose the forward.
	sl.Shard(1).Schedule(1000, func() {})
	sl.Run()
	if want := []Time{2 * la}; !reflect.DeepEqual(got, want) {
		t.Fatalf("forwarded mail ran at %v, want %v", got, want)
	}
}

func TestShardedLoopTopologySameTimestampFanIn(t *testing.T) {
	// All three spokes send mail stamped with the identical timestamp;
	// the hub must apply them in (at, src, idx) order every run.
	run := func() []string {
		sl := NewShardedLoop(0, [][]int{{3}, {3}, {3}, {0, 1, 2}}, 5)
		var order []string
		for spoke := 0; spoke < 3; spoke++ {
			spoke := spoke
			sl.Shard(spoke).Schedule(0, func() {
				for i := 0; i < 2; i++ {
					i := i
					sl.Send(spoke, 3, 5, func() {
						order = append(order, fmt.Sprintf("s%d.%d@%d", spoke, i, sl.Shard(3).Now()))
					})
				}
			})
		}
		sl.Run()
		return order
	}
	first := run()
	if len(first) != 6 {
		t.Fatalf("hub ran %d of 6 mails: %v", len(first), first)
	}
	want := []string{"s0.0@5", "s0.1@5", "s1.0@5", "s1.1@5", "s2.0@5", "s2.1@5"}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("fan-in order %v, want %v", first, want)
	}
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged: %v vs %v", i, got, first)
		}
	}
}
