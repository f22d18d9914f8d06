package cache

// queue is one list of pages in a node slab, newest at the front. LRU
// and FIFO differ only in whether a hit moves a page to the front.
type queue struct {
	nodes
	l nodeList
}

func newQueue() queue { return queue{l: newNodeList()} }

// touch moves id to the front and reports whether it was tracked.
func (q *queue) touch(id PageID) bool {
	i, ok := q.index.get(id)
	if ok {
		q.moveToFront(&q.l, i)
	}
	return ok
}

func (q *queue) push(id PageID) { q.addFront(&q.l, id, 0) }

func (q *queue) remove(id PageID) {
	if i, ok := q.index.del(id); ok {
		q.unlink(&q.l, i)
		q.release(i)
	}
}

func (q *queue) popBack() (PageID, bool) {
	if q.l.tail < 0 {
		return PageID{}, false
	}
	return q.drop(&q.l, q.l.tail), true
}

// LRU evicts the least recently used page. This is the default policy
// and the closest simple analogue of the Linux page cache the paper's
// testbed ran on.
type LRU struct {
	q queue // front = MRU
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{q: newQueue()} }

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// SetCapacity implements Policy; LRU needs no capacity knowledge.
func (l *LRU) SetCapacity(int) {}

// OnAccess implements Policy.
func (l *LRU) OnAccess(id PageID) { l.q.touch(id) }

// OnInsert implements Policy.
func (l *LRU) OnInsert(id PageID) {
	if !l.q.touch(id) {
		l.q.push(id)
	}
}

// OnRemove implements Policy.
func (l *LRU) OnRemove(id PageID) { l.q.remove(id) }

// OnMiss implements Policy; LRU learns nothing from misses.
func (l *LRU) OnMiss(PageID) {}

// Victim implements Policy.
func (l *LRU) Victim() (PageID, bool) { return l.q.popBack() }

// FIFO evicts in insertion order, ignoring recency. It is the
// baseline that makes LRU's recency benefit measurable.
type FIFO struct {
	q queue
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{q: newQueue()} }

// Name implements Policy.
func (f *FIFO) Name() string { return "fifo" }

// SetCapacity implements Policy.
func (f *FIFO) SetCapacity(int) {}

// OnAccess implements Policy; FIFO ignores recency.
func (f *FIFO) OnAccess(PageID) {}

// OnInsert implements Policy.
func (f *FIFO) OnInsert(id PageID) {
	if _, ok := f.q.index.get(id); !ok {
		f.q.push(id)
	}
}

// OnRemove implements Policy.
func (f *FIFO) OnRemove(id PageID) { f.q.remove(id) }

// OnMiss implements Policy.
func (f *FIFO) OnMiss(PageID) {}

// Victim implements Policy.
func (f *FIFO) Victim() (PageID, bool) { return f.q.popBack() }
