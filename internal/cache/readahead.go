package cache

// Readahead decides, per read, which extra pages to prefetch. The
// paper points out that layout and prefetching are often inseparable
// ("does this reflect a good on-disk layout policy or good
// prefetching? Can you even distinguish them?"); modeling readahead
// as an explicit, swappable policy lets the harness separate them.
type Readahead interface {
	// Name identifies the policy for reports.
	Name() string
	// Plan is called for each page-granular read with the file, the
	// page index, whether it hit the cache, and the file length in
	// pages. It returns the first extra page to prefetch and how
	// many; n == 0 means no prefetch.
	Plan(file uint64, index int64, hit bool, filePages int64) (start int64, n int64)
	// Forget drops per-file state (on close/unlink).
	Forget(file uint64)
}

// NoReadahead never prefetches.
type NoReadahead struct{}

// Name implements Readahead.
func (NoReadahead) Name() string { return "none" }

// Plan implements Readahead.
func (NoReadahead) Plan(uint64, int64, bool, int64) (int64, int64) { return 0, 0 }

// Forget implements Readahead.
func (NoReadahead) Forget(uint64) {}

// FixedReadahead prefetches the next N pages after every miss,
// regardless of access pattern — the dumb-but-common strategy.
type FixedReadahead struct {
	N int64
}

// Name implements Readahead.
func (f FixedReadahead) Name() string { return "fixed" }

// Plan implements Readahead.
func (f FixedReadahead) Plan(_ uint64, index int64, hit bool, filePages int64) (int64, int64) {
	if hit || f.N <= 0 {
		return 0, 0
	}
	start := index + 1
	n := f.N
	if start >= filePages {
		return 0, 0
	}
	if start+n > filePages {
		n = filePages - start
	}
	return start, n
}

// Forget implements Readahead.
func (FixedReadahead) Forget(uint64) {}

// AdaptiveReadahead models the Linux-style window: detect sequential
// streams per file, grow the window multiplicatively up to MaxPages,
// and collapse it on random access. Random workloads therefore get
// (almost) no wasted prefetch, while sequential scans stream at full
// device bandwidth — exactly the coupling that makes warm-up curves
// file-system dependent in Figure 2.
type AdaptiveReadahead struct {
	// InitPages is the window started on a detected sequential pair.
	InitPages int64
	// MaxPages caps window growth.
	MaxPages int64

	state map[uint64]*raState
}

type raState struct {
	lastIndex int64
	window    int64
	nextStart int64 // first page not yet prefetched
}

// NewAdaptiveReadahead returns an adaptive policy with the given
// initial and maximum windows (in pages). Linux defaults are roughly
// 4 initial / 32 max (128 KB) for this era.
func NewAdaptiveReadahead(initPages, maxPages int64) *AdaptiveReadahead {
	if initPages < 1 {
		initPages = 1
	}
	if maxPages < initPages {
		maxPages = initPages
	}
	return &AdaptiveReadahead{
		InitPages: initPages,
		MaxPages:  maxPages,
		state:     make(map[uint64]*raState),
	}
}

// Name implements Readahead.
func (a *AdaptiveReadahead) Name() string { return "adaptive" }

// Plan implements Readahead.
func (a *AdaptiveReadahead) Plan(file uint64, index int64, hit bool, filePages int64) (int64, int64) {
	st, ok := a.state[file]
	if !ok {
		st = &raState{lastIndex: -2}
		a.state[file] = st
	}
	sequential := index == st.lastIndex+1
	st.lastIndex = index
	if !sequential {
		st.window = 0
		st.nextStart = 0
		return 0, 0
	}
	if st.window == 0 {
		st.window = a.InitPages
		st.nextStart = index + 1
	} else if index+st.window/2 >= st.nextStart {
		// The reader is catching up with the prefetched region:
		// double the window (async readahead trigger).
		st.window *= 2
		if st.window > a.MaxPages {
			st.window = a.MaxPages
		}
	} else {
		return 0, 0 // plenty prefetched already
	}
	start := st.nextStart
	if start < index+1 {
		start = index + 1
	}
	end := start + st.window
	if end > filePages {
		end = filePages
	}
	if end <= start {
		return 0, 0
	}
	st.nextStart = end
	return start, end - start
}

// Forget implements Readahead.
func (a *AdaptiveReadahead) Forget(file uint64) { delete(a.state, file) }

// ReadaheadNames lists the readahead policies NewReadahead builds.
func ReadaheadNames() []string { return []string{"none", "fixed", "adaptive"} }

// NewReadahead constructs a readahead policy by name: "none" (or ""),
// "fixed" (the next 8 pages after every miss), or "adaptive" (a
// window of 4 pages growing to 32). Any other name yields NoReadahead,
// so a caller handed a name from outside the program checks it against
// ReadaheadNames first, as core.StackConfig does.
func NewReadahead(name string) Readahead {
	switch name {
	case "", "none":
		return NoReadahead{}
	case "fixed":
		return FixedReadahead{N: 8}
	case "adaptive":
		return NewAdaptiveReadahead(4, 32)
	default:
		return NoReadahead{}
	}
}
