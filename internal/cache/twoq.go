package cache

// TwoQ implements the 2Q policy (Johnson & Shasha, VLDB '94): new
// pages enter a small FIFO probation queue (A1in); pages evicted from
// probation are remembered in a ghost queue (A1out); a miss that hits
// the ghost queue indicates reuse and the page is admitted to the main
// LRU queue (Am). Scan-resistant where plain LRU is not. A page keeps
// one node from admission until it leaves the ghost queue; moving
// between queues relinks that node.
type TwoQ struct {
	capacity int
	kin      int // max A1in size (resident)
	kout     int // max A1out size (ghost entries)

	nodes
	// queues, indexed by a node's tag: A1in is the FIFO of resident
	// probation pages, A1out the FIFO of ghost ids, Am the LRU of
	// resident hot pages (front = MRU).
	queues [3]nodeList
}

const (
	qA1in = iota
	qA1out
	qAm
)

// NewTwoQ returns an empty 2Q policy. Queue sizing uses the paper's
// recommended Kin = 25% and Kout = 50% of capacity.
func NewTwoQ() *TwoQ {
	return &TwoQ{queues: [3]nodeList{newNodeList(), newNodeList(), newNodeList()}}
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

// OnAccess implements Policy. 2Q leaves probation pages in place on
// hit; promotion happens only via the ghost queue.
func (q *TwoQ) OnAccess(id PageID) {
	if i, ok := q.index.get(id); ok && q.recs[i].tag == qAm {
		q.moveToFront(&q.queues[qAm], i)
	}
}

// OnMiss implements Policy. Nothing to do here: the ghost check
// happens in OnInsert, where the node (if any) still records A1out
// membership.
func (q *TwoQ) OnMiss(PageID) {}

// OnInsert implements Policy.
func (q *TwoQ) OnInsert(id PageID) {
	if i, ok := q.index.get(id); ok {
		if q.recs[i].tag == qA1out {
			// Reuse detected: admit to the hot queue.
			q.unlink(&q.queues[qA1out], i)
			q.pushFront(&q.queues[qAm], i, qAm)
		}
		return // otherwise already resident
	}
	q.addFront(&q.queues[qA1in], id, qA1in)
}

// OnRemove implements Policy.
func (q *TwoQ) OnRemove(id PageID) {
	if i, ok := q.index.del(id); ok {
		q.unlink(&q.queues[q.recs[i].tag], i)
		q.release(i)
	}
}

// Victim implements Policy.
func (q *TwoQ) Victim() (PageID, bool) {
	in, am := &q.queues[qA1in], &q.queues[qAm]
	if i := in.tail; i >= 0 && (in.n > q.kin || am.n == 0) {
		// Remember the page as a ghost.
		id := q.recs[i].id
		q.unlink(in, i)
		q.pushFront(&q.queues[qA1out], i, qA1out)
		q.trimGhosts()
		return id, true
	}
	if i := am.tail; i >= 0 {
		return q.drop(am, i), true
	}
	return PageID{}, false
}

func (q *TwoQ) trimGhosts() {
	for out := &q.queues[qA1out]; out.n > q.kout; {
		q.drop(out, out.tail)
	}
}

// residentLen reports resident pages tracked (for tests).
func (q *TwoQ) residentLen() int { return q.queues[qA1in].n + q.queues[qAm].n }
