package cache

import "repro/internal/sim"

// Random evicts a uniformly random resident page. It is the
// no-information baseline for the eviction-policy dimension.
type Random struct {
	rng   *sim.RNG
	ids   []PageID
	index pageIndex // position of each id in ids
}

// NewRandom returns a random-eviction policy drawing from rng.
func NewRandom(rng *sim.RNG) *Random {
	return &Random{rng: rng}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// SetCapacity implements Policy.
func (r *Random) SetCapacity(int) {}

// OnAccess implements Policy.
func (r *Random) OnAccess(PageID) {}

// OnInsert implements Policy.
func (r *Random) OnInsert(id PageID) {
	if _, ok := r.index.get(id); ok {
		return
	}
	r.index.put(id, int32(len(r.ids)))
	r.ids = append(r.ids, id)
}

// OnRemove implements Policy: swap-delete from the slice.
func (r *Random) OnRemove(id PageID) {
	pos, ok := r.index.del(id)
	if !ok {
		return
	}
	last := int32(len(r.ids) - 1)
	if pos != last {
		r.ids[pos] = r.ids[last]
		r.index.put(r.ids[pos], pos)
	}
	r.ids = r.ids[:last]
}

// OnMiss implements Policy.
func (r *Random) OnMiss(PageID) {}

// Victim implements Policy.
func (r *Random) Victim() (PageID, bool) {
	if len(r.ids) == 0 {
		return PageID{}, false
	}
	id := r.ids[r.rng.Intn(len(r.ids))]
	r.OnRemove(id)
	return id, true
}
