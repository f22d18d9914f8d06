package cache

// ARC implements the Adaptive Replacement Cache (Megiddo & Modha,
// FAST '03): two resident lists, T1 (recency) and T2 (frequency),
// plus two ghost lists, B1 and B2, whose hits steer the adaptive
// target p that divides the cache between recency and frequency. A
// page keeps one node while it is in the directory; moving between
// lists relinks that node.
type ARC struct {
	capacity int
	p        int // target size of T1

	nodes
	lists [4]nodeList // indexed by a node's tag; front = MRU
}

const (
	lT1 = iota
	lT2
	lB1
	lB2
)

// NewARC returns an empty ARC policy.
func NewARC() *ARC {
	return &ARC{lists: [4]nodeList{newNodeList(), newNodeList(), newNodeList(), newNodeList()}}
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
	i, ok := a.index.get(id)
	if !ok {
		return
	}
	switch a.recs[i].tag {
	case lT1:
		a.unlink(&a.lists[lT1], i)
		a.pushFront(&a.lists[lT2], i, lT2)
	case lT2:
		a.moveToFront(&a.lists[lT2], i)
	}
}

// OnMiss implements Policy: ghost hits adapt p.
func (a *ARC) OnMiss(id PageID) {
	i, ok := a.index.get(id)
	if !ok {
		return
	}
	b1, b2 := a.lists[lB1].n, a.lists[lB2].n
	switch a.recs[i].tag {
	case lB1:
		delta := 1
		if b1 > 0 && b2 > b1 {
			delta = b2 / b1
		}
		a.p = min(a.p+delta, a.capacity)
		// Leave the ghost in place; OnInsert consumes it.
	case lB2:
		delta := 1
		if b2 > 0 && b1 > b2 {
			delta = b1 / b2
		}
		a.p = max(a.p-delta, 0)
	}
}

// OnInsert implements Policy.
func (a *ARC) OnInsert(id PageID) {
	if i, ok := a.index.get(id); ok {
		if tag := a.recs[i].tag; tag == lB1 || tag == lB2 {
			a.unlink(&a.lists[tag], i)
			a.pushFront(&a.lists[lT2], i, lT2)
		}
		return // otherwise already resident
	}
	a.addFront(&a.lists[lT1], id, lT1)
	a.trimGhosts()
}

// OnRemove implements Policy.
func (a *ARC) OnRemove(id PageID) {
	if i, ok := a.index.del(id); ok {
		a.unlink(&a.lists[a.recs[i].tag], i)
		a.release(i)
	}
}

// Victim implements Policy: evict from T1 if it exceeds the target p,
// else from T2; the evicted page becomes a ghost.
func (a *ARC) Victim() (PageID, bool) {
	t1, t2 := &a.lists[lT1], &a.lists[lT2]
	var src int
	switch {
	case t1.n > 0 && (t1.n > a.p || t2.n == 0):
		src = lT1
	case t2.n > 0:
		src = lT2
	default:
		return PageID{}, false
	}
	ghost := src + lB1 // lT1 -> lB1, lT2 -> lB2
	i := a.lists[src].tail
	id := a.recs[i].id
	a.unlink(&a.lists[src], i)
	a.pushFront(&a.lists[ghost], i, uint8(ghost))
	a.trimGhosts()
	return id, true
}

// trimGhosts bounds ghost memory: |T1|+|B1| <= c and total directory
// size <= 2c, per the ARC paper.
func (a *ARC) trimGhosts() {
	t1, t2, b1, b2 := &a.lists[lT1], &a.lists[lT2], &a.lists[lB1], &a.lists[lB2]
	for t1.n+b1.n > a.capacity && b1.n > 0 {
		a.drop(b1, b1.tail)
	}
	for t1.n+t2.n+b1.n+b2.n > 2*a.capacity && b2.n > 0 {
		a.drop(b2, b2.tail)
	}
}

// Target reports ARC's adaptive recency target (for tests/reports).
func (a *ARC) Target() int { return a.p }
