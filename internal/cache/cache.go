// Package cache models a page-granular buffer cache with pluggable
// eviction policies, readahead, dirty-page tracking, and an optional
// second (flash) tier.
//
// The paper's central phenomena — the Figure 1 performance cliff, the
// Figure 2 warm-up S-curve, the Figure 3/4 bimodal latency — are all
// artifacts of cache population dynamics, so the cache is modeled in
// full rather than as a hit-ratio formula. The paper also asks "how
// are elements evicted from the cache?" and notes that no benchmark
// measures it; here the eviction policy is a first-class, swappable
// axis that the harness can sweep.
package cache

import (
	"cmp"
	"fmt"
	"slices"
)

// PageSize is the cache granule in bytes, matching the x86 Linux page.
const PageSize = 4096

// PageID names one page of one file (or of file-system metadata, which
// uses reserved File numbers chosen by the file system).
type PageID struct {
	File  uint64 // inode number or metadata stream id
	Index int64  // page index within the file
}

// String formats the id for diagnostics.
func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Index) }

// Evicted reports a page pushed out of the cache and whether it was
// dirty (the caller must then write it back).
type Evicted struct {
	ID    PageID
	Dirty bool
}

// Stats counts cache events. PrefetchHits counts prefetched pages that
// were later referenced before eviction — the measure of readahead
// efficacy the paper asks for ("does the file system pre-fetch entire
// files, blocks, or large extents?").
type Stats struct {
	Hits          int64
	Misses        int64
	Inserts       int64
	Evictions     int64
	DirtyEvict    int64
	Invalidations int64
	Prefetches    int64
	PrefetchHits  int64
}

// HitRatio reports hits/(hits+misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// pageRec is one resident page's record in the cache's slab. Its
// links are slots in the same slab (-1 ends a list).
type pageRec struct {
	id                   PageID
	dirtyPrev, dirtyNext int32  // dirtied-order list, while dirty
	filePrev, fileNext   int32  // the page's file's list
	wbGen                uint64 // flight token of the current write-back (see MarkWriteback)
	dirty                bool
	writeback            bool // write-back submitted, completion not yet fired
}

// Cache is a fixed-capacity page cache. It tracks residency and dirty
// state; the I/O costs of hits, misses, and write-back belong to the
// layer above (the VFS), which knows the device and the block mapping.
//
// Cache is not safe for concurrent use; the simulation core is
// single-goroutine.
type Cache struct {
	capacity int           // pages; 0 means cache disabled
	pages    slab[pageRec] // resident pages
	policy   Policy
	stats    Stats
	dirty    int    // resident dirty pages (kept incrementally)
	wb       int    // resident pages with write-back in flight
	wbGen    uint64 // flight-token counter for MarkWriteback
	// dirtyHead and dirtyTail bound the list of dirty pages in the
	// order they were dirtied. The order matters: the write-back
	// flusher collects bounded batches, and any order taken from a
	// hash table would hand it a batch that depends on table layout,
	// not on the simulated history. FIFO order is also what real
	// kernels approximate (oldest-dirtied first).
	dirtyHead, dirtyTail int32
	// files maps PageID{File: f} to the first page of f's list, so
	// that InvalidateFile (unlink, truncate) need not scan the whole
	// cache.
	files pageIndex
	// prefetched has bit i set while the page in slot i came in by
	// readahead and has not been referenced. Every hit tests it, so it
	// is a bitmap small enough to stay in the CPU cache rather than a
	// field of the page's record.
	prefetched []uint64
	indexBuf   []int64 // InvalidateFile's page indices, reused
}

// New returns a cache holding capacityPages pages under the given
// eviction policy. A zero capacity is legal and means every lookup
// misses (a "no cache" configuration for cold-cache nano-benchmarks).
func New(capacityPages int, policy Policy) *Cache {
	if capacityPages < 0 {
		panic("cache: negative capacity")
	}
	if policy == nil {
		panic("cache: nil policy")
	}
	policy.SetCapacity(capacityPages)
	return &Cache{capacity: capacityPages, policy: policy, dirtyHead: -1, dirtyTail: -1}
}

// markDirty and clearDirty keep the dirty-page bookkeeping in one
// place, appending slot i to / unlinking it from the dirtied-order
// list.
func (c *Cache) markDirty(i int32) {
	r := &c.pages.recs[i]
	r.dirty = true
	c.dirty++
	r.dirtyPrev, r.dirtyNext = c.dirtyTail, -1
	if c.dirtyTail >= 0 {
		c.pages.recs[c.dirtyTail].dirtyNext = i
	} else {
		c.dirtyHead = i
	}
	c.dirtyTail = i
}

func (c *Cache) clearDirty(i int32) {
	r := &c.pages.recs[i]
	r.dirty = false
	c.dirty--
	if r.dirtyPrev >= 0 {
		c.pages.recs[r.dirtyPrev].dirtyNext = r.dirtyNext
	} else {
		c.dirtyHead = r.dirtyNext
	}
	if r.dirtyNext >= 0 {
		c.pages.recs[r.dirtyNext].dirtyPrev = r.dirtyPrev
	} else {
		c.dirtyTail = r.dirtyPrev
	}
}

// linkFile adds slot i to its file's list, right after the file's
// first page so the files index changes only for a file's first page.
func (c *Cache) linkFile(i int32) {
	recs := c.pages.recs
	key := PageID{File: recs[i].id.File}
	first, ok := c.files.get(key)
	if !ok {
		recs[i].filePrev, recs[i].fileNext = -1, -1
		c.files.put(key, i)
		return
	}
	next := recs[first].fileNext
	recs[i].filePrev, recs[i].fileNext = first, next
	if next >= 0 {
		recs[next].filePrev = i
	}
	recs[first].fileNext = i
}

func (c *Cache) unlinkFile(i int32) {
	recs := c.pages.recs
	prev, next := recs[i].filePrev, recs[i].fileNext
	if next >= 0 {
		recs[next].filePrev = prev
	}
	switch key := (PageID{File: recs[i].id.File}); {
	case prev >= 0:
		recs[prev].fileNext = next
	case next >= 0:
		c.files.put(key, next)
	default:
		c.files.del(key)
	}
}

// drop forgets the resident page at slot i, whose id the caller has
// already deleted from the index, except for its file's list.
func (c *Cache) drop(i int32) {
	r := &c.pages.recs[i]
	if r.dirty {
		c.clearDirty(i)
	}
	if r.writeback {
		c.wb--
	}
	c.prefetched[i/64] &^= 1 << (i % 64)
	c.pages.release(i)
}

// Capacity reports the configured size in pages.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the number of resident pages.
func (c *Cache) Len() int { return c.pages.index.n }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Policy exposes the eviction policy (for reports).
func (c *Cache) Policy() Policy { return c.policy }

// Contains reports residency without recording an access — for tests
// and for readahead duplicate suppression.
func (c *Cache) Contains(id PageID) bool {
	_, ok := c.pages.index.get(id)
	return ok
}

// Lookup records an access to id. It returns whether the page was
// resident. A miss is reported to the policy (ARC and 2Q learn from
// ghost hits).
func (c *Cache) Lookup(id PageID) bool {
	if i, ok := c.pages.index.get(id); ok {
		c.stats.Hits++
		if w, bit := &c.prefetched[i/64], uint64(1)<<(i%64); *w&bit != 0 {
			*w &^= bit
			c.stats.PrefetchHits++
		}
		c.policy.OnAccess(id)
		return true
	}
	c.stats.Misses++
	c.policy.OnMiss(id)
	return false
}

// Insert makes id resident (typically right after a miss was served
// from the device) and returns any pages evicted to make room. If the
// page is already resident the call only updates its dirty bit.
func (c *Cache) Insert(id PageID, dirty bool) []Evicted {
	return c.insert(id, dirty, false)
}

// InsertPrefetched inserts a page fetched by readahead. It is counted
// separately so prefetch efficacy is measurable.
func (c *Cache) InsertPrefetched(id PageID) []Evicted {
	c.stats.Prefetches++
	return c.insert(id, false, true)
}

func (c *Cache) insert(id PageID, dirty, prefetched bool) []Evicted {
	if i, ok := c.pages.index.get(id); ok {
		if dirty && !c.pages.recs[i].dirty {
			c.markDirty(i)
		}
		return nil
	}
	if c.capacity == 0 {
		return nil
	}
	evicted := c.evictDownTo(c.capacity - 1)
	i := c.pages.add(id)
	c.pages.recs[i].id = id
	if int(i/64) == len(c.prefetched) {
		c.prefetched = append(c.prefetched, 0)
	}
	if prefetched {
		c.prefetched[i/64] |= 1 << (i % 64)
	}
	c.linkFile(i)
	if dirty {
		c.markDirty(i)
	}
	c.policy.OnInsert(id)
	c.stats.Inserts++
	return evicted
}

// evictDownTo evicts the policy's victims until at most n pages are
// resident and returns them. A policy that runs out of victims, or
// names a page that is not resident, has broken the Policy invariant:
// that is a bug, not a recoverable state, so it panics.
func (c *Cache) evictDownTo(n int) []Evicted {
	var evicted []Evicted
	for c.Len() > n {
		victim, ok := c.policy.Victim()
		if !ok {
			panic(fmt.Sprintf("cache: policy %q has no victim but cache holds %d/%d pages",
				c.policy.Name(), c.Len(), c.capacity))
		}
		i, ok := c.pages.index.del(victim)
		if !ok {
			panic(fmt.Sprintf("cache: policy %q evicted non-resident page %v", c.policy.Name(), victim))
		}
		dirty := c.pages.recs[i].dirty
		c.stats.Evictions++
		if dirty {
			c.stats.DirtyEvict++
		}
		c.unlinkFile(i)
		c.drop(i)
		evicted = append(evicted, Evicted{ID: victim, Dirty: dirty})
	}
	return evicted
}

// MarkDirty sets the dirty bit on a resident page. It reports whether
// the page was resident.
func (c *Cache) MarkDirty(id PageID) bool {
	i, ok := c.pages.index.get(id)
	if !ok {
		return false
	}
	if !c.pages.recs[i].dirty {
		c.markDirty(i)
	}
	return true
}

// Clean clears the dirty bit (after write-back).
func (c *Cache) Clean(id PageID) {
	if i, ok := c.pages.index.get(id); ok && c.pages.recs[i].dirty {
		c.clearDirty(i)
	}
}

// MarkWriteback moves a dirty page into the write-back state: a
// flusher has submitted its write but the completion has not fired.
// The page leaves the dirtied-order list (so it is not collected
// again) yet still counts against dirty throttling via
// WritebackCount. On success it returns a flight token that the
// completion passes back to EndWriteback; ok is false when the page
// is not resident, not dirty, or already in flight (a page re-dirtied
// during write-back stays dirty and is flushed again only after
// EndWriteback).
func (c *Cache) MarkWriteback(id PageID) (gen uint64, ok bool) {
	i, present := c.pages.index.get(id)
	if !present {
		return 0, false
	}
	r := &c.pages.recs[i]
	if !r.dirty || r.writeback {
		return 0, false
	}
	c.clearDirty(i)
	r.writeback = true
	c.wbGen++
	r.wbGen = c.wbGen
	c.wb++
	return c.wbGen, true
}

// EndWriteback clears the write-back state when the flight identified
// by gen completes. The token guards against stale completions: a
// page evicted mid-flight and later re-inserted and re-flushed has a
// NEW flight outstanding, and the old write's late completion must
// not clear it (sync paths would report durability too early). A
// completion for an evicted or invalidated page is likewise a no-op —
// its count was dropped at removal.
func (c *Cache) EndWriteback(id PageID, gen uint64) {
	if i, ok := c.pages.index.get(id); ok {
		if r := &c.pages.recs[i]; r.writeback && r.wbGen == gen {
			r.writeback = false
			c.wb--
		}
	}
}

// WritebackCount reports resident pages with write-back in flight.
// Dirty throttling and SyncAll look at DirtyCount + WritebackCount:
// the true amount of not-yet-durable data.
func (c *Cache) WritebackCount() int { return c.wb }

// IsWriteback reports the write-back state of a resident page.
func (c *Cache) IsWriteback(id PageID) bool {
	i, ok := c.pages.index.get(id)
	return ok && c.pages.recs[i].writeback
}

// IsDirty reports the dirty bit of a resident page.
func (c *Cache) IsDirty(id PageID) bool {
	i, ok := c.pages.index.get(id)
	return ok && c.pages.recs[i].dirty
}

// DirtyCount reports the number of dirty resident pages. It is O(1);
// the write-back trigger calls it on every operation.
func (c *Cache) DirtyCount() int { return c.dirty }

// CollectDirty appends up to max dirty page ids to dst, oldest
// dirtied first, and returns it. The write-back flusher uses this;
// pass max <= 0 for all dirty pages. Cost scales with the number of
// dirty pages, not the cache size.
func (c *Cache) CollectDirty(dst []PageID, max int) []PageID {
	for i := c.dirtyHead; i >= 0; i = c.pages.recs[i].dirtyNext {
		dst = append(dst, c.pages.recs[i].id)
		if max > 0 && len(dst) >= max {
			break
		}
	}
	return dst
}

// CollectDirtyFile appends the dirty pages of one file to dst, oldest
// dirtied first — fsync's working set.
func (c *Cache) CollectDirtyFile(dst []PageID, file uint64) []PageID {
	for i := c.dirtyHead; i >= 0; i = c.pages.recs[i].dirtyNext {
		if id := c.pages.recs[i].id; id.File == file {
			dst = append(dst, id)
		}
	}
	return dst
}

// Invalidate drops a page regardless of dirty state (used by truncate
// and unlink, where the data is going away anyway). It reports whether
// the page was resident.
func (c *Cache) Invalidate(id PageID) bool {
	i, ok := c.pages.index.del(id)
	if !ok {
		return false
	}
	c.unlinkFile(i)
	c.drop(i)
	c.policy.OnRemove(id)
	c.stats.Invalidations++
	return true
}

// InvalidateFile drops every resident page of the given file and
// returns how many were dropped. It walks the file's list, so its
// cost scales with the file's resident pages, not the cache size.
func (c *Cache) InvalidateFile(file uint64) int {
	first, ok := c.files.del(PageID{File: file})
	if !ok {
		return 0
	}
	// Remove in ascending page order: policies with history (ARC, 2Q)
	// see removals, and the list's order records how the file's pages
	// arrived, which their ghost lists must not depend on.
	indices := c.indexBuf[:0]
	for i := first; i >= 0; i = c.pages.recs[i].fileNext {
		indices = append(indices, c.pages.recs[i].id.Index)
	}
	slices.Sort(indices)
	for _, pageIdx := range indices {
		id := PageID{File: file, Index: pageIdx}
		i, _ := c.pages.index.del(id)
		c.drop(i)
		c.policy.OnRemove(id)
	}
	c.indexBuf = indices
	c.stats.Invalidations += int64(len(indices))
	return len(indices)
}

// Resize changes capacity, evicting as needed, and returns the evicted
// pages. The harness uses it to model per-run variation in available
// memory — the paper's "just a few megabytes more (or less) available
// in the cache" fragility.
func (c *Cache) Resize(capacityPages int) []Evicted {
	if capacityPages < 0 {
		panic("cache: negative capacity")
	}
	c.capacity = capacityPages
	c.policy.SetCapacity(capacityPages)
	return c.evictDownTo(c.capacity)
}

// Flush removes every page (writing nothing); tests and unmount use
// it after the caller has written dirty pages back.
func (c *Cache) Flush() {
	// Deterministic removal order, for the same reason as
	// InvalidateFile: policy history must not depend on table order.
	ids := c.pages.index.appendIDs(make([]PageID, 0, c.Len()))
	slices.SortFunc(ids, func(a, b PageID) int {
		if a.File != b.File {
			return cmp.Compare(a.File, b.File)
		}
		return cmp.Compare(a.Index, b.Index)
	})
	for _, id := range ids {
		c.policy.OnRemove(id)
	}
	c.pages.reset()
	c.files.clear()
	clear(c.prefetched)
	c.dirtyHead, c.dirtyTail = -1, -1
	c.dirty = 0
	c.wb = 0
}
