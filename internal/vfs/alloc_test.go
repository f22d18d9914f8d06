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
	m.StopWriteback()
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

// TestMountWakeAllocFree pins flushSync's deferred wake: the mount
// itself is the event target, so scheduling the dirty-waiter wake
// costs zero allocations.
func TestMountWakeAllocFree(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	enterEvents(t, m, loop)
	m.StopWriteback()
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
	m.StopWriteback()
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
