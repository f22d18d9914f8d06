package cache

// Clock approximates LRU with a reference bit and a sweeping hand —
// the classic CLOCK algorithm used where true LRU bookkeeping on every
// hit is too expensive. A node's tag is its reference bit.
type Clock struct {
	ring queue // hand sweeps from the back towards the front
}

// NewClock returns an empty CLOCK policy.
func NewClock() *Clock { return &Clock{ring: newQueue()} }

// Name implements Policy.
func (c *Clock) Name() string { return "clock" }

// SetCapacity implements Policy.
func (c *Clock) SetCapacity(int) {}

// OnAccess implements Policy: set the reference bit, move nothing.
func (c *Clock) OnAccess(id PageID) {
	if i, ok := c.ring.index.get(id); ok {
		c.ring.recs[i].tag = 1
	}
}

// OnInsert implements Policy.
func (c *Clock) OnInsert(id PageID) {
	if i, ok := c.ring.index.get(id); ok {
		c.ring.recs[i].tag = 1
		return
	}
	c.ring.push(id)
}

// OnRemove implements Policy.
func (c *Clock) OnRemove(id PageID) { c.ring.remove(id) }

// OnMiss implements Policy.
func (c *Clock) OnMiss(PageID) {}

// Victim implements Policy: sweep the hand, clearing reference bits,
// until an unreferenced page is found.
func (c *Clock) Victim() (PageID, bool) {
	for r := &c.ring; r.l.tail >= 0; {
		i := r.l.tail
		if r.recs[i].tag != 0 {
			// Second chance: clear the bit and rotate to the front.
			r.recs[i].tag = 0
			r.moveToFront(&r.l, i)
			continue
		}
		return r.drop(&r.l, i), true
	}
	return PageID{}, false
}
