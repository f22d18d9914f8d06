package vfs

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestSubmitAsyncAllocPinned pins the fire-and-forget hot path
// (journal pushes, eviction write-back, prefetch): one full
// schedule → arrival → queue-submit cycle on the nil-onErr path costs
// exactly one allocation — the block layer's IORequest. The pooled
// asyncReq event and the missing done-closure are what this pin
// protects; regressing to a closure per request doubles the count.
func TestSubmitAsyncAllocPinned(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	enterEvents(t, m, loop)
	loop.Reserve(64)
	req := device.Request{Op: device.Write, LBA: 4096, Sectors: 8, Owner: device.OwnerNone}
	// Warm the pool, the scheduler window, and the per-owner stats map.
	for i := 0; i < 4; i++ {
		if err := m.submitAsync(loop.Now(), req, nil); err != nil {
			t.Fatal(err)
		}
	}
	loop.Run()
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.submitAsync(loop.Now(), req, nil); err != nil {
			t.Fatal(err)
		}
		loop.Run() // arrival event, dispatch, completion
	})
	m.EndEvents()
	if allocs > 1 {
		t.Fatalf("submitAsync cycle allocated %.1f objects/op, want <= 1 (the IORequest)", allocs)
	}
}

// TestSubmitSyncAllocPinned pins the blocking path (demand misses,
// metadata reads): one wake → submit → completion → park cycle of a
// process that issues one read through submitSync costs at most one
// allocation, the block layer's IORequest. The pooled waiter, whose
// completion is bound once, is what this pin protects; a completion
// closure per request, with the results it captures, costs three more.
func TestSubmitSyncAllocPinned(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	enterEvents(t, m, loop)
	loop.Reserve(64)
	req := device.Request{Op: device.Read, LBA: 4096, Sectors: 8, Owner: device.OwnerNone}
	stop := false
	p := loop.Go(loop.Now(), func(p *sim.Proc) {
		for !stop {
			if _, err := m.submitSync(p.Now(), req); err != nil {
				t.Error(err)
			}
			p.Park()
		}
	})
	p.Owner = 1
	cycle := func() {
		loop.ScheduleTarget(loop.Now()+1, p)
		loop.Run() // wake, submit, dispatch, completion, park
	}
	// Warm the pool, the scheduler window, and the per-owner stats map.
	loop.Run()
	for i := 0; i < 4; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	stop = true
	cycle()
	m.EndEvents()
	if allocs > 1 {
		t.Fatalf("submitSync cycle allocated %.1f objects/op, want <= 1 (the IORequest)", allocs)
	}
}

// TestMountWakeAllocFree pins flushSync's deferred wake: the mount
// itself is the event target, so scheduling the dirty-waiter wake
// costs zero allocations.
func TestMountWakeAllocFree(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	enterEvents(t, m, loop)
	loop.Reserve(16)
	allocs := testing.AllocsPerRun(200, func() {
		loop.ScheduleTarget(loop.Now()+1, m)
		loop.Step()
	})
	m.EndEvents()
	if allocs != 0 {
		t.Fatalf("mount wake scheduling allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSubmitAsyncAlloc reports the hot path's allocation rate
// for the CI bench artifacts, alongside sim's BenchmarkScheduleAlloc.
func BenchmarkSubmitAsyncAlloc(b *testing.B) {
	m := newMount(b, 64, 0)
	loop := sim.NewEventLoop(0)
	enterEvents(b, m, loop)
	loop.Reserve(64)
	req := device.Request{Op: device.Write, LBA: 4096, Sectors: 8, Owner: device.OwnerNone}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.submitAsync(loop.Now(), req, nil); err != nil {
			b.Fatal(err)
		}
		loop.Run()
	}
	m.EndEvents()
}
