package cache

import "container/list"

// ARC implements the Adaptive Replacement Cache (Megiddo & Modha,
// FAST '03): two resident lists, T1 (recency) and T2 (frequency),
// plus two ghost lists, B1 and B2, whose hits steer the adaptive
// target p that divides the cache between recency and frequency. An
// entry moving between lists carries the boxed id list.Remove hands
// back, so each page id is boxed once, when it enters the directory.
type ARC struct {
	capacity int
	p        int // target size of T1

	t1, t2 *list.List // resident (front = MRU)
	b1, b2 *list.List // ghosts (front = MRU)

	where map[PageID]*arcEntry
}

type arcEntry struct {
	elem *list.Element
	list int // lT1, lT2, lB1, lB2
}

const (
	lT1 = iota
	lT2
	lB1
	lB2
)

// NewARC returns an empty ARC policy.
func NewARC() *ARC {
	return &ARC{
		t1: list.New(), t2: list.New(),
		b1: list.New(), b2: list.New(),
		where: make(map[PageID]*arcEntry),
	}
}

// Name implements Policy.
func (a *ARC) Name() string { return "arc" }

// SetCapacity implements Policy.
func (a *ARC) SetCapacity(pages int) {
	a.capacity = pages
	if a.p > pages {
		a.p = pages
	}
}

// OnAccess implements Policy: any hit promotes to T2 MRU.
func (a *ARC) OnAccess(id PageID) {
	e, ok := a.where[id]
	if !ok {
		return
	}
	switch e.list {
	case lT1:
		e.elem = a.t2.PushFront(a.t1.Remove(e.elem))
		e.list = lT2
	case lT2:
		a.t2.MoveToFront(e.elem)
	}
}

// OnMiss implements Policy: ghost hits adapt p.
func (a *ARC) OnMiss(id PageID) {
	e, ok := a.where[id]
	if !ok {
		return
	}
	switch e.list {
	case lB1:
		delta := 1
		if a.b1.Len() > 0 && a.b2.Len() > a.b1.Len() {
			delta = a.b2.Len() / a.b1.Len()
		}
		a.p = min(a.p+delta, a.capacity)
		// Leave the ghost in place; OnInsert consumes it.
	case lB2:
		delta := 1
		if a.b2.Len() > 0 && a.b1.Len() > a.b2.Len() {
			delta = a.b1.Len() / a.b2.Len()
		}
		a.p = max(a.p-delta, 0)
	}
}

// OnInsert implements Policy.
func (a *ARC) OnInsert(id PageID) {
	if e, ok := a.where[id]; ok {
		switch e.list {
		case lB1:
			e.elem = a.t2.PushFront(a.b1.Remove(e.elem))
			e.list = lT2
			return
		case lB2:
			e.elem = a.t2.PushFront(a.b2.Remove(e.elem))
			e.list = lT2
			return
		default:
			return // already resident
		}
	}
	a.where[id] = &arcEntry{elem: a.t1.PushFront(id), list: lT1}
	a.trimGhosts()
}

// OnRemove implements Policy.
func (a *ARC) OnRemove(id PageID) {
	e, ok := a.where[id]
	if !ok {
		return
	}
	a.listOf(e.list).Remove(e.elem)
	delete(a.where, id)
}

func (a *ARC) listOf(which int) *list.List {
	switch which {
	case lT1:
		return a.t1
	case lT2:
		return a.t2
	case lB1:
		return a.b1
	default:
		return a.b2
	}
}

// Victim implements Policy: evict from T1 if it exceeds the target p,
// else from T2; the evicted page becomes a ghost.
func (a *ARC) Victim() (PageID, bool) {
	fromT1 := a.t1.Len() > 0 && (a.t1.Len() > a.p || a.t2.Len() == 0)
	var src, ghost *list.List
	var ghostList int
	if fromT1 {
		src, ghost, ghostList = a.t1, a.b1, lB1
	} else if a.t2.Len() > 0 {
		src, ghost, ghostList = a.t2, a.b2, lB2
	} else {
		return PageID{}, false
	}
	v := src.Remove(src.Back())
	id := v.(PageID)
	entry := a.where[id]
	entry.elem = ghost.PushFront(v)
	entry.list = ghostList
	a.trimGhosts()
	return id, true
}

// trimGhosts bounds ghost memory: |T1|+|B1| <= c and total directory
// size <= 2c, per the ARC paper.
func (a *ARC) trimGhosts() {
	for a.t1.Len()+a.b1.Len() > a.capacity && a.b1.Len() > 0 {
		e := a.b1.Back()
		delete(a.where, e.Value.(PageID))
		a.b1.Remove(e)
	}
	for a.t1.Len()+a.t2.Len()+a.b1.Len()+a.b2.Len() > 2*a.capacity && a.b2.Len() > 0 {
		e := a.b2.Back()
		delete(a.where, e.Value.(PageID))
		a.b2.Remove(e)
	}
}

// Target reports ARC's adaptive recency target (for tests/reports).
func (a *ARC) Target() int { return a.p }
