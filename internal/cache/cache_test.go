package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func page(file uint64, idx int64) PageID { return PageID{File: file, Index: idx} }

func TestLookupMissThenHit(t *testing.T) {
	c := New(4, NewLRU())
	if c.Lookup(page(1, 0)) {
		t.Fatal("lookup hit in empty cache")
	}
	c.Insert(page(1, 0), false)
	if !c.Lookup(page(1, 0)) {
		t.Fatal("lookup missed resident page")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 insert", s)
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := New(3, NewLRU())
	for i := int64(0); i < 10; i++ {
		c.Insert(page(1, i), false)
	}
	if c.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", c.Len())
	}
	if got := c.Stats().Evictions; got != 7 {
		t.Fatalf("evictions = %d, want 7", got)
	}
}

func TestZeroCapacityCache(t *testing.T) {
	c := New(0, NewLRU())
	c.Insert(page(1, 0), false)
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache retained a page")
	}
	if c.Lookup(page(1, 0)) {
		t.Fatal("zero-capacity cache hit")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3, NewLRU())
	c.Insert(page(1, 0), false)
	c.Insert(page(1, 1), false)
	c.Insert(page(1, 2), false)
	c.Lookup(page(1, 0)) // page 0 is now MRU; page 1 is LRU
	ev := c.Insert(page(1, 3), false)
	if len(ev) != 1 || ev[0].ID != page(1, 1) {
		t.Fatalf("evicted %v, want page 1:1", ev)
	}
}

func TestFIFOEvictionIgnoresRecency(t *testing.T) {
	c := New(3, NewFIFO())
	c.Insert(page(1, 0), false)
	c.Insert(page(1, 1), false)
	c.Insert(page(1, 2), false)
	c.Lookup(page(1, 0)) // recency must not matter
	ev := c.Insert(page(1, 3), false)
	if len(ev) != 1 || ev[0].ID != page(1, 0) {
		t.Fatalf("evicted %v, want first-inserted page 1:0", ev)
	}
}

func TestClockSecondChance(t *testing.T) {
	c := New(3, NewClock())
	c.Insert(page(1, 0), false)
	c.Insert(page(1, 1), false)
	c.Insert(page(1, 2), false)
	c.Lookup(page(1, 0)) // reference bit set on page 0
	ev := c.Insert(page(1, 3), false)
	if len(ev) != 1 || ev[0].ID == page(1, 0) {
		t.Fatalf("evicted %v; referenced page 1:0 should have survived", ev)
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(2, NewLRU())
	c.Insert(page(1, 0), true)
	c.Insert(page(1, 1), false)
	ev := c.Insert(page(1, 2), false)
	if len(ev) != 1 || !ev[0].Dirty || ev[0].ID != page(1, 0) {
		t.Fatalf("evicted = %+v, want dirty page 1:0", ev)
	}
	if c.Stats().DirtyEvict != 1 {
		t.Fatalf("DirtyEvict = %d, want 1", c.Stats().DirtyEvict)
	}
}

func TestMarkDirtyAndClean(t *testing.T) {
	c := New(2, NewLRU())
	if c.MarkDirty(page(1, 0)) {
		t.Fatal("MarkDirty succeeded on non-resident page")
	}
	c.Insert(page(1, 0), false)
	if !c.MarkDirty(page(1, 0)) || !c.IsDirty(page(1, 0)) {
		t.Fatal("MarkDirty failed on resident page")
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d, want 1", c.DirtyCount())
	}
	c.Clean(page(1, 0))
	if c.IsDirty(page(1, 0)) || c.DirtyCount() != 0 {
		t.Fatal("Clean left the page dirty")
	}
}

func TestCollectDirty(t *testing.T) {
	c := New(10, NewLRU())
	for i := int64(0); i < 6; i++ {
		c.Insert(page(1, i), i%2 == 0)
	}
	all := c.CollectDirty(nil, 0)
	if len(all) != 3 {
		t.Fatalf("CollectDirty(all) = %d pages, want 3", len(all))
	}
	capped := c.CollectDirty(nil, 2)
	if len(capped) != 2 {
		t.Fatalf("CollectDirty(max=2) = %d pages, want 2", len(capped))
	}
}

func TestCollectDirtyOrderIsDirtiedOrder(t *testing.T) {
	// The flusher's batches must be reproducible: collection follows
	// the order pages were dirtied, not map iteration.
	c := New(10, NewLRU())
	order := []int64{5, 1, 4, 2}
	for _, i := range order {
		c.Insert(page(1, i), true)
	}
	got := c.CollectDirty(nil, 0)
	for i, id := range got {
		if id.Index != order[i] {
			t.Fatalf("CollectDirty order %v, want dirtied order %v", got, order)
		}
	}
	// Re-dirtying after Clean moves the page to the tail.
	c.Clean(page(1, 5))
	c.MarkDirty(page(1, 5))
	got = c.CollectDirty(nil, 0)
	if got[len(got)-1].Index != 5 {
		t.Fatalf("re-dirtied page not at tail: %v", got)
	}
	// A capped collection takes the oldest-dirtied prefix.
	capped := c.CollectDirty(nil, 2)
	if capped[0].Index != 1 || capped[1].Index != 4 {
		t.Fatalf("capped collection %v, want prefix [1 4]", capped)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, NewLRU())
	c.Insert(page(1, 0), true)
	if !c.Invalidate(page(1, 0)) {
		t.Fatal("Invalidate failed on resident page")
	}
	if c.Invalidate(page(1, 0)) {
		t.Fatal("Invalidate succeeded twice")
	}
	if c.Contains(page(1, 0)) {
		t.Fatal("page survived Invalidate")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(10, NewLRU())
	for i := int64(0); i < 4; i++ {
		c.Insert(page(1, i), false)
		c.Insert(page(2, i), false)
	}
	if n := c.InvalidateFile(1); n != 4 {
		t.Fatalf("InvalidateFile dropped %d pages, want 4", n)
	}
	if c.Len() != 4 {
		t.Fatalf("Len() = %d after invalidating file 1, want 4", c.Len())
	}
	for i := int64(0); i < 4; i++ {
		if c.Contains(page(1, i)) {
			t.Fatalf("page 1:%d survived InvalidateFile", i)
		}
		if !c.Contains(page(2, i)) {
			t.Fatalf("page 2:%d lost by InvalidateFile(1)", i)
		}
	}
}

func TestResizeShrinkEvicts(t *testing.T) {
	c := New(8, NewLRU())
	for i := int64(0); i < 8; i++ {
		c.Insert(page(1, i), false)
	}
	ev := c.Resize(3)
	if len(ev) != 5 {
		t.Fatalf("Resize evicted %d pages, want 5", len(ev))
	}
	if c.Len() != 3 || c.Capacity() != 3 {
		t.Fatalf("after resize: len=%d cap=%d, want 3/3", c.Len(), c.Capacity())
	}
}

func TestInsertExistingUpdatesDirty(t *testing.T) {
	c := New(4, NewLRU())
	c.Insert(page(1, 0), false)
	if ev := c.Insert(page(1, 0), true); len(ev) != 0 {
		t.Fatalf("reinsert evicted %v", ev)
	}
	if !c.IsDirty(page(1, 0)) {
		t.Fatal("reinsert with dirty=true did not mark page dirty")
	}
	if c.Stats().Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1 (reinsert is not an insert)", c.Stats().Inserts)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := New(4, NewLRU())
	c.InsertPrefetched(page(1, 5))
	if c.Stats().Prefetches != 1 {
		t.Fatal("prefetch not counted")
	}
	c.Lookup(page(1, 5))
	if c.Stats().PrefetchHits != 1 {
		t.Fatal("prefetch hit not counted")
	}
	c.Lookup(page(1, 5))
	if c.Stats().PrefetchHits != 1 {
		t.Fatal("prefetch hit double-counted")
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty HitRatio != 0")
	}
	s.Hits, s.Misses = 3, 1
	if got := s.HitRatio(); got != 0.75 {
		t.Fatalf("HitRatio = %v, want 0.75", got)
	}
}

// policyInvariant runs a random op stream against a cache and checks
// the residency invariants every policy must maintain.
func policyInvariant(t *testing.T, name string) {
	t.Helper()
	pol, err := NewPolicy(name, sim.NewRNG(100))
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 32
	c := New(capacity, pol)
	rng := sim.NewRNG(7)
	f := func(fileSeed uint8, idxSeed uint16, dirty, invalidate bool) bool {
		id := page(uint64(fileSeed%4)+1, int64(idxSeed%128))
		switch {
		case invalidate && rng.Bool(0.1):
			c.Invalidate(id)
		default:
			if !c.Lookup(id) {
				c.Insert(id, dirty)
			}
		}
		return c.Len() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatalf("policy %s violated capacity: %v", name, err)
	}
	// Drain: every resident page must be findable as a victim.
	drained := 0
	for c.Len() > 0 {
		v, ok := c.policy.Victim()
		if !ok {
			t.Fatalf("policy %s: %d pages resident but no victim", name, c.Len())
		}
		if _, ok := c.pages.index.del(v); !ok {
			t.Fatalf("policy %s: victim %v not resident", name, v)
		}
		drained++
		if drained > 10*capacity {
			t.Fatalf("policy %s: drain did not terminate", name)
		}
	}
}

func TestPolicyInvariants(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) { policyInvariant(t, name) })
	}
}

func TestPolicyHitRatioOrdering(t *testing.T) {
	// On a Zipf-skewed trace, every informed policy must beat random
	// eviction materially, and nothing should be worse than ~random.
	run := func(name string) float64 {
		pol, err := NewPolicy(name, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		c := New(64, pol)
		rng := sim.NewRNG(9)
		z := sim.NewZipf(rng, 1024, 1.2)
		for i := 0; i < 50000; i++ {
			id := page(1, z.Next())
			if !c.Lookup(id) {
				c.Insert(id, false)
			}
		}
		return c.Stats().HitRatio()
	}
	ratios := map[string]float64{}
	for _, name := range PolicyNames() {
		ratios[name] = run(name)
	}
	for _, name := range []string{"lru", "clock", "2q", "arc"} {
		if ratios[name] < ratios["random"]-0.02 {
			t.Errorf("%s hit ratio %.3f worse than random %.3f", name, ratios[name], ratios["random"])
		}
	}
	if ratios["lru"] < 0.5 {
		t.Errorf("lru hit ratio %.3f implausibly low on Zipf trace", ratios["lru"])
	}
}

func TestARCAdaptsTarget(t *testing.T) {
	a := NewARC()
	c := New(16, a)
	touch := func(id PageID) {
		if !c.Lookup(id) {
			c.Insert(id, false)
		}
	}
	// Build frequency: pages 0..7 accessed twice land in T2, keeping
	// T1 small so scan victims can accumulate as B1 ghosts.
	for rep := 0; rep < 2; rep++ {
		for i := int64(0); i < 8; i++ {
			touch(page(1, i))
		}
	}
	// Scan fresh pages through T1, then immediately re-touch recently
	// evicted ones: those are B1 ghost hits, which must raise p.
	for i := int64(100); i < 160; i++ {
		touch(page(1, i))
		if i > 115 {
			touch(page(1, i-12))
		}
	}
	if a.Target() == 0 {
		t.Error("ARC target never adapted upward under recency pressure")
	}
}

func TestTwoQGhostPromotion(t *testing.T) {
	q := NewTwoQ()
	c := New(8, q)
	// Fill far beyond capacity so early pages pass through A1in into
	// the ghost queue.
	for i := int64(0); i < 32; i++ {
		c.Insert(page(1, i), false)
	}
	// Re-reference a recently ghosted page (the ghost queue keeps only
	// the latest Kout = 4 evictees): it must be admitted to Am.
	ghost := page(1, 22)
	if c.Lookup(ghost) {
		t.Skip("page unexpectedly resident; ghost path not exercised")
	}
	c.Insert(ghost, false)
	if i, ok := q.index.get(ghost); !ok || q.recs[i].tag != qAm {
		t.Errorf("ghost-hit page not promoted to Am (tracked=%v)", ok)
	}
	if q.residentLen() != c.Len() {
		t.Errorf("2Q resident bookkeeping (%d) disagrees with cache (%d)", q.residentLen(), c.Len())
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("galactic", nil); err == nil {
		t.Fatal("NewPolicy accepted unknown name")
	}
}

func TestFlush(t *testing.T) {
	c := New(4, NewLRU())
	for i := int64(0); i < 4; i++ {
		c.Insert(page(1, i), false)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("Flush left pages resident")
	}
	// Cache must remain usable.
	c.Insert(page(2, 0), false)
	if !c.Contains(page(2, 0)) {
		t.Fatal("cache unusable after Flush")
	}
}

// TestPolicyAllocs pins what one Lookup hit or one evicting Insert
// allocates in a full cache, for every policy. Pages and policy nodes
// live in slabs whose freed slots are reused, so a hit allocates
// nothing and an evicting insert allocates only the []Evicted it
// returns.
func TestPolicyAllocs(t *testing.T) {
	const pages = 1 << 10
	for _, policy := range PolicyNames() {
		for _, tc := range []struct {
			name string
			hit  bool // Lookup a resident page not yet hit, else Insert a new one
			want float64
		}{
			{"first-hit", true, 0},
			{"insert-evict", false, 1},
		} {
			t.Run(policy+"/"+tc.name, func(t *testing.T) {
				pol, err := NewPolicy(policy, sim.NewRNG(1))
				if err != nil {
					t.Fatal(err)
				}
				// Stream four capacities of pages through, so the ghost
				// lists are full too; none of the resident pages is hit
				// yet.
				c := New(pages, pol)
				for i := int64(0); i < 4*pages; i++ {
					c.Insert(page(1, i), false)
				}
				var resident []PageID
				for i := int64(0); i < 4*pages; i++ {
					if c.Contains(page(1, i)) {
						resident = append(resident, page(1, i))
					}
				}
				next := 0
				got := testing.AllocsPerRun(100, func() {
					if tc.hit {
						if !c.Lookup(resident[next]) {
							t.Fatalf("page %v not resident", resident[next])
						}
					} else {
						c.Insert(page(1, int64(4*pages+next)), false)
					}
					next++
				})
				if got != tc.want {
					t.Errorf("%.2f allocs/op, want %v", got, tc.want)
				}
			})
		}
	}
}

func BenchmarkLRUHit(b *testing.B) {
	b.ReportAllocs()
	c := New(1<<16, NewLRU())
	for i := int64(0); i < 1<<16; i++ {
		c.Insert(page(1, i), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(page(1, int64(i)&(1<<16-1)))
	}
}

func BenchmarkLRUChurn(b *testing.B) {
	b.ReportAllocs()
	c := New(1<<12, NewLRU())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := page(1, int64(i))
		if !c.Lookup(id) {
			c.Insert(id, false)
		}
	}
}

func BenchmarkARCChurn(b *testing.B) {
	b.ReportAllocs()
	c := New(1<<12, NewARC())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := page(1, int64(i))
		if !c.Lookup(id) {
			c.Insert(id, false)
		}
	}
}

func TestWritebackState(t *testing.T) {
	c := New(8, NewLRU())
	id := PageID{File: 1, Index: 0}
	c.Insert(id, true)
	if c.DirtyCount() != 1 || c.WritebackCount() != 0 {
		t.Fatalf("dirty=%d wb=%d after dirty insert", c.DirtyCount(), c.WritebackCount())
	}
	// Not dirty → no transition.
	if _, ok := c.MarkWriteback(PageID{File: 1, Index: 9}); ok {
		t.Error("MarkWriteback succeeded on a non-resident page")
	}
	gen, ok := c.MarkWriteback(id)
	if !ok {
		t.Fatal("MarkWriteback failed on a dirty page")
	}
	if c.DirtyCount() != 0 || c.WritebackCount() != 1 || !c.IsWriteback(id) {
		t.Fatalf("dirty=%d wb=%d after MarkWriteback", c.DirtyCount(), c.WritebackCount())
	}
	// Already in flight → no second submission.
	if _, ok := c.MarkWriteback(id); ok {
		t.Error("MarkWriteback succeeded twice")
	}
	// The flusher must not collect an in-flight page again.
	if ids := c.CollectDirty(nil, 0); len(ids) != 0 {
		t.Errorf("CollectDirty returned in-flight pages: %v", ids)
	}
	c.EndWriteback(id, gen)
	if c.WritebackCount() != 0 || c.IsDirty(id) {
		t.Fatalf("wb=%d dirty=%v after EndWriteback", c.WritebackCount(), c.IsDirty(id))
	}
}

func TestWritebackRedirty(t *testing.T) {
	c := New(8, NewLRU())
	id := PageID{File: 1, Index: 0}
	c.Insert(id, true)
	gen, _ := c.MarkWriteback(id)
	// Re-dirtied mid-flight: page is dirty AND in write-back.
	if !c.MarkDirty(id) {
		t.Fatal("MarkDirty failed on resident page")
	}
	if c.DirtyCount() != 1 || c.WritebackCount() != 1 {
		t.Fatalf("dirty=%d wb=%d after re-dirty", c.DirtyCount(), c.WritebackCount())
	}
	// Completion clears only the write-back state; the page stays
	// dirty and is collected again.
	c.EndWriteback(id, gen)
	if c.DirtyCount() != 1 || c.WritebackCount() != 0 {
		t.Fatalf("dirty=%d wb=%d after EndWriteback", c.DirtyCount(), c.WritebackCount())
	}
	if ids := c.CollectDirty(nil, 0); len(ids) != 1 || ids[0] != id {
		t.Errorf("re-dirtied page not collected: %v", ids)
	}
}

func TestWritebackEvictionDropsCount(t *testing.T) {
	c := New(2, NewLRU())
	a := PageID{File: 1, Index: 0}
	c.Insert(a, true)
	genA, _ := c.MarkWriteback(a)
	// Fill past capacity so `a` is evicted while in flight.
	c.Insert(PageID{File: 1, Index: 1}, false)
	c.Insert(PageID{File: 1, Index: 2}, false)
	if c.Contains(a) {
		t.Fatal("victim still resident")
	}
	if c.WritebackCount() != 0 {
		t.Fatalf("wb=%d after evicting an in-flight page", c.WritebackCount())
	}
	c.EndWriteback(a, genA) // late completion for an evicted page: no-op
	if c.WritebackCount() != 0 {
		t.Fatalf("wb=%d after late EndWriteback", c.WritebackCount())
	}
	// Invalidate and Flush also forget in-flight state.
	b := PageID{File: 2, Index: 0}
	c.Insert(b, true)
	c.MarkWriteback(b)
	c.Invalidate(b)
	if c.WritebackCount() != 0 {
		t.Fatalf("wb=%d after Invalidate", c.WritebackCount())
	}
	c.Insert(b, true)
	c.MarkWriteback(b)
	c.Flush()
	if c.WritebackCount() != 0 {
		t.Fatalf("wb=%d after Flush", c.WritebackCount())
	}
}

func TestWritebackStaleCompletionIgnored(t *testing.T) {
	c := New(2, NewLRU())
	a := PageID{File: 1, Index: 0}
	c.Insert(a, true)
	genA, _ := c.MarkWriteback(a)
	// Evict a mid-flight, then bring it back dirty and flush again.
	c.Insert(PageID{File: 1, Index: 1}, false)
	c.Insert(PageID{File: 1, Index: 2}, false)
	if c.Contains(a) {
		t.Fatal("victim still resident")
	}
	c.Insert(a, true)
	genB, ok := c.MarkWriteback(a)
	if !ok || genB == genA {
		t.Fatalf("second flight gen=%d ok=%v (first %d)", genB, ok, genA)
	}
	// The first flight's late completion must not clear the second:
	// sync paths would observe WritebackCount()==0 and report
	// durability before the second write finished.
	c.EndWriteback(a, genA)
	if c.WritebackCount() != 1 || !c.IsWriteback(a) {
		t.Fatalf("stale completion cleared the live flight: wb=%d", c.WritebackCount())
	}
	c.EndWriteback(a, genB)
	if c.WritebackCount() != 0 {
		t.Fatalf("wb=%d after live completion", c.WritebackCount())
	}
}

// strayPolicy is LRU except that it names, as its victim, a page the
// cache never held: a broken Policy invariant.
type strayPolicy struct{ *LRU }

func (strayPolicy) Name() string { return "stray" }

func (strayPolicy) Victim() (PageID, bool) { return page(99, 7), true }

func TestEvictNonResidentVictimPanics(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	const want = `cache: policy "stray" evicted non-resident page 99:7`
	for _, tc := range []struct {
		name  string
		evict func(*Cache)
	}{
		{"insert", func(c *Cache) { c.Insert(page(1, 2), false) }},
		{"resize", func(c *Cache) { c.Resize(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(2, strayPolicy{NewLRU()})
			c.Insert(page(1, 0), false)
			c.Insert(page(1, 1), false)
			if got := recovered(func() { tc.evict(c) }); got != want {
				t.Fatalf("panic %v, want %q", got, want)
			}
		})
	}
}
