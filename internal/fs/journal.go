package fs

// Journal models a physical write-ahead log: a contiguous block
// region written sequentially and circularly. Metadata updates append
// record blocks; a commit writes a commit block. Because the region
// is contiguous, journal writes are cheap sequential I/O — but they
// are I/O, and they put the disk head somewhere, both of which the
// journaled models (ext3sim, xfssim) exhibit and the unjournaled one
// (ext2sim) does not.
type Journal struct {
	start  int64 // first block of the journal region
	blocks int64 // region length
	head   int64 // next block to write, relative to start

	pending int // record blocks appended since the last commit
	commits int64
	appends int64
	wrapped int64
}

// NewJournal returns a journal occupying [start, start+blocks).
func NewJournal(start, blocks int64) *Journal {
	if blocks <= 0 {
		panic("fs: journal with no blocks")
	}
	return &Journal{start: start, blocks: blocks}
}

// Append returns synchronous write steps for n record blocks.
func (j *Journal) Append(n int) []IOStep {
	steps := make([]IOStep, 0, n)
	for i := 0; i < n; i++ {
		steps = append(steps, SyncWrite(j.start+j.head))
		j.head++
		if j.head == j.blocks {
			j.head = 0
			j.wrapped++
		}
	}
	j.pending += n
	j.appends += int64(n)
	return steps
}

// Commit returns the commit-block write if any records are pending,
// or nil when there is nothing to commit.
func (j *Journal) Commit() []IOStep {
	if j.pending == 0 {
		return nil
	}
	step := SyncWrite(j.start + j.head)
	j.head++
	if j.head == j.blocks {
		j.head = 0
		j.wrapped++
	}
	j.pending = 0
	j.commits++
	return []IOStep{step}
}

// Pending reports uncommitted record blocks.
func (j *Journal) Pending() int { return j.pending }

// Stats reports lifetime counters: record blocks appended, commits
// issued, and full wraps of the region.
func (j *Journal) Stats() (appends, commits, wraps int64) {
	return j.appends, j.commits, j.wrapped
}
