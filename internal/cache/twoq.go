package cache

import "container/list"

// TwoQ implements the 2Q policy (Johnson & Shasha, VLDB '94): new
// pages enter a small FIFO probation queue (A1in); pages evicted from
// probation are remembered in a ghost queue (A1out); a miss that hits
// the ghost queue indicates reuse and the page is admitted to the main
// LRU queue (Am). Scan-resistant where plain LRU is not. As in ARC, a
// page moving between queues carries its boxed id along.
type TwoQ struct {
	capacity int
	kin      int // max A1in size (resident)
	kout     int // max A1out size (ghost entries)

	a1in  *list.List // FIFO of resident probation pages
	a1out *list.List // FIFO of ghost ids
	am    *list.List // LRU of resident hot pages (front = MRU)

	where map[PageID]*twoQEntry
}

type twoQEntry struct {
	elem  *list.Element
	queue int // which list: qA1in, qA1out, qAm
}

const (
	qA1in = iota
	qA1out
	qAm
)

// NewTwoQ returns an empty 2Q policy. Queue sizing uses the paper's
// recommended Kin = 25% and Kout = 50% of capacity.
func NewTwoQ() *TwoQ {
	return &TwoQ{
		a1in:  list.New(),
		a1out: list.New(),
		am:    list.New(),
		where: make(map[PageID]*twoQEntry),
	}
}

// Name implements Policy.
func (q *TwoQ) Name() string { return "2q" }

// SetCapacity implements Policy.
func (q *TwoQ) SetCapacity(pages int) {
	q.capacity = pages
	q.kin = pages / 4
	if q.kin < 1 {
		q.kin = 1
	}
	q.kout = pages / 2
	if q.kout < 1 {
		q.kout = 1
	}
}

// OnAccess implements Policy.
func (q *TwoQ) OnAccess(id PageID) {
	e, ok := q.where[id]
	if !ok {
		return
	}
	switch e.queue {
	case qA1in:
		// 2Q leaves probation pages in place on hit; promotion
		// happens only via the ghost queue.
	case qAm:
		q.am.MoveToFront(e.elem)
	}
}

// OnMiss implements Policy: a ghost hit marks the page for admission
// directly into Am on the upcoming insert.
func (q *TwoQ) OnMiss(id PageID) {
	// Nothing to do here: the ghost check happens in OnInsert, where
	// the entry (if any) still records qA1out membership.
}

// OnInsert implements Policy.
func (q *TwoQ) OnInsert(id PageID) {
	if e, ok := q.where[id]; ok {
		switch e.queue {
		case qA1out:
			// Reuse detected: admit to the hot queue.
			e.elem = q.am.PushFront(q.a1out.Remove(e.elem))
			e.queue = qAm
			return
		default:
			return // already resident
		}
	}
	q.where[id] = &twoQEntry{elem: q.a1in.PushFront(id), queue: qA1in}
}

// OnRemove implements Policy.
func (q *TwoQ) OnRemove(id PageID) {
	e, ok := q.where[id]
	if !ok {
		return
	}
	switch e.queue {
	case qA1in:
		q.a1in.Remove(e.elem)
	case qA1out:
		q.a1out.Remove(e.elem)
	case qAm:
		q.am.Remove(e.elem)
	}
	delete(q.where, id)
}

// Victim implements Policy.
func (q *TwoQ) Victim() (PageID, bool) {
	if q.a1in.Len() > q.kin || q.am.Len() == 0 {
		if e := q.a1in.Back(); e != nil {
			v := q.a1in.Remove(e)
			id := v.(PageID)
			// Remember the page as a ghost.
			entry := q.where[id]
			entry.elem = q.a1out.PushFront(v)
			entry.queue = qA1out
			q.trimGhosts()
			return id, true
		}
	}
	if e := q.am.Back(); e != nil {
		id := e.Value.(PageID)
		q.am.Remove(e)
		delete(q.where, id)
		return id, true
	}
	return PageID{}, false
}

func (q *TwoQ) trimGhosts() {
	for q.a1out.Len() > q.kout {
		e := q.a1out.Back()
		id := e.Value.(PageID)
		q.a1out.Remove(e)
		delete(q.where, id)
	}
}

// residentLen reports resident pages tracked (for tests).
func (q *TwoQ) residentLen() int { return q.a1in.Len() + q.am.Len() }
