package cache

// Level identifies where a tiered lookup was satisfied.
type Level int

// Lookup outcomes for a Hierarchy.
const (
	Miss Level = iota
	L1Hit
	L2Hit
)

// String names the level for reports.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	default:
		return "miss"
	}
}

// Hierarchy is a two-level cache: a DRAM tier (L1) in front of an
// optional flash tier (L2) acting as a victim cache. The paper notes
// that "more modern file systems rely on multiple cache levels (using
// Flash memory or network). In this case the performance curve will
// have multiple distinctive steps" — the Hierarchy is the substrate
// for reproducing that multi-step curve.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache // nil for a single-level hierarchy
}

// NewHierarchy builds a hierarchy; l2 may be nil.
func NewHierarchy(l1, l2 *Cache) *Hierarchy {
	if l1 == nil {
		panic("cache: hierarchy without L1")
	}
	return &Hierarchy{L1: l1, L2: l2}
}

// Lookup reports where (if anywhere) the page resides, recording the
// access at each consulted tier. An L2 hit promotes the page to L1;
// clean L1 victims demote to L2.
func (h *Hierarchy) Lookup(id PageID) Level {
	if h.L1.Lookup(id) {
		return L1Hit
	}
	if h.L2 == nil {
		return Miss
	}
	if h.L2.Lookup(id) {
		h.L2.Invalidate(id)
		h.demote(h.L1.Insert(id, false))
		return L2Hit
	}
	return Miss
}

// Insert places a freshly read (or written) page into L1, demoting
// clean victims into L2 and returning dirty victims that the caller
// must write back.
func (h *Hierarchy) Insert(id PageID, dirty bool) []Evicted {
	return h.demote(h.L1.Insert(id, dirty))
}

// InsertPrefetched is Insert for readahead-fetched pages.
func (h *Hierarchy) InsertPrefetched(id PageID) []Evicted {
	return h.demote(h.L1.InsertPrefetched(id))
}

// demote pushes clean L1 victims into L2 and passes dirty ones (plus
// anything L2 itself evicts dirty, which cannot happen in the current
// clean-demotion scheme but is handled for safety) back to the caller.
func (h *Hierarchy) demote(evicted []Evicted) []Evicted {
	if h.L2 == nil || len(evicted) == 0 {
		return evicted
	}
	var dirty []Evicted
	for _, ev := range evicted {
		if ev.Dirty {
			dirty = append(dirty, ev)
			continue
		}
		for _, ev2 := range h.L2.Insert(ev.ID, false) {
			if ev2.Dirty {
				dirty = append(dirty, ev2)
			}
		}
	}
	return dirty
}

// MarkDirty sets the dirty bit in L1 (dirty data lives only in L1).
func (h *Hierarchy) MarkDirty(id PageID) bool { return h.L1.MarkDirty(id) }

// Invalidate drops the page from every tier.
func (h *Hierarchy) Invalidate(id PageID) {
	h.L1.Invalidate(id)
	if h.L2 != nil {
		h.L2.Invalidate(id)
	}
}

// InvalidateFile drops a whole file from every tier.
func (h *Hierarchy) InvalidateFile(file uint64) {
	h.L1.InvalidateFile(file)
	if h.L2 != nil {
		h.L2.InvalidateFile(file)
	}
}

// Contains reports residency in any tier without recording an access.
func (h *Hierarchy) Contains(id PageID) bool {
	if h.L1.Contains(id) {
		return true
	}
	return h.L2 != nil && h.L2.Contains(id)
}
