package cache

import (
	"fmt"

	"repro/internal/sim"
)

// Policy is an eviction policy. The Cache owns residency (its page
// index); the policy owns ordering. Invariant: the set of pages the
// policy tracks as resident equals the set the cache's index holds.
//
// OnMiss exists so adaptive policies (ARC, 2Q) can learn from ghost
// hits; simple policies ignore it.
type Policy interface {
	// Name identifies the policy in reports ("lru", "arc", ...).
	Name() string
	// SetCapacity informs the policy of the cache size in pages.
	SetCapacity(pages int)
	// OnAccess records a hit on a resident page.
	OnAccess(id PageID)
	// OnInsert records a newly resident page.
	OnInsert(id PageID)
	// OnRemove records an explicit removal (invalidate).
	OnRemove(id PageID)
	// OnMiss records a lookup miss (before any insert).
	OnMiss(id PageID)
	// Victim selects a resident page to evict and forgets it. It
	// returns false only if the policy tracks no pages.
	Victim() (PageID, bool)
}

// NewPolicy constructs a policy by name: "lru", "fifo", "clock",
// "random", "2q", "arc". The rng is only used by "random" (pass nil
// otherwise, or always — unused is fine).
func NewPolicy(name string, rng *sim.RNG) (Policy, error) {
	switch name {
	case "lru", "":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "clock":
		return NewClock(), nil
	case "random":
		if rng == nil {
			rng = sim.NewRNG(0)
		}
		return NewRandom(rng), nil
	case "2q":
		return NewTwoQ(), nil
	case "arc":
		return NewARC(), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %q", name)
	}
}

// PolicyNames lists the available eviction policies (for sweeps).
func PolicyNames() []string {
	return []string{"lru", "fifo", "clock", "random", "2q", "arc"}
}

// node is one entry of a policy's lists: the page and its links,
// which are slots in the same slab (-1 ends a list).
type node struct {
	id         PageID
	prev, next int32
	tag        uint8 // the list holding the node (2Q, ARC), or Clock's reference bit
}

// nodeList is a doubly linked list threaded through a node slab.
type nodeList struct {
	head, tail int32 // -1 when empty; head is the front
	n          int
}

func newNodeList() nodeList { return nodeList{head: -1, tail: -1} }

// nodes is the slab that LRU, FIFO, Clock, 2Q and ARC keep every
// tracked page in: a page's node moves between a policy's lists by
// relinking, never by allocating.
type nodes struct{ slab[node] }

// pushFront links node i at the front of l under tag.
func (s *nodes) pushFront(l *nodeList, i int32, tag uint8) {
	nd := &s.recs[i]
	nd.prev, nd.next, nd.tag = -1, l.head, tag
	if l.head >= 0 {
		s.recs[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
	l.n++
}

// unlink takes node i out of l.
func (s *nodes) unlink(l *nodeList, i int32) {
	nd := &s.recs[i]
	if nd.prev >= 0 {
		s.recs[nd.prev].next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next >= 0 {
		s.recs[nd.next].prev = nd.prev
	} else {
		l.tail = nd.prev
	}
	l.n--
}

func (s *nodes) moveToFront(l *nodeList, i int32) {
	if l.head != i {
		s.unlink(l, i)
		s.pushFront(l, i, s.recs[i].tag)
	}
}

// addFront tracks id in a new node at the front of l.
func (s *nodes) addFront(l *nodeList, id PageID, tag uint8) {
	i := s.add(id)
	s.recs[i].id = id
	s.pushFront(l, i, tag)
}

// drop unlinks node i from l, forgets it, and returns its page.
func (s *nodes) drop(l *nodeList, i int32) PageID {
	id := s.recs[i].id
	s.unlink(l, i)
	s.index.del(id)
	s.release(i)
	return id
}
