// Package xfssim models an XFS-like file system: allocation groups,
// extent-based mapping with delayed-allocation-style contiguity, a
// small delayed-logging journal, and aggressive readahead defaults.
//
// The behavioral differences from ext2sim/ext3sim that matter to the
// paper's experiments: files are laid out in a few large extents (so
// random reads within a file seek over a tighter span and mapping
// needs little or no metadata I/O), and the readahead hint is wider.
// Both make XFS warm the page cache differently in Figure 2.
//
// The namespace and inode operations are fs.Core's; this package
// supplies the layout and wraps Create, Resize and Remove with the
// delayed log. Atime updates only dirty the inode for write-back, with
// no log traffic: the cheapest of the three models.
package xfssim

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/sim"
)

// Geometry constants.
const (
	// inlineExtents is how many extents fit in the inode before the
	// mapping spills into a B+tree.
	inlineExtents = 8
	// extentsPerLeaf is the fan-out of a mapping-tree leaf block.
	extentsPerLeaf = 128
	// agHeaderBlocks reserves AG headers (superblock, AGF, AGI, AGFL).
	agHeaderBlocks = 4
	// LogBlocks is the journal ("log") size: 4096 × 4 KB = 16 MB.
	LogBlocks = 4096
	// logBatch is the delayed-logging batch: operations per log
	// record write (XFS's delayed logging aggregates aggressively).
	logBatch = 8
)

// FS is the XFS model.
type FS struct {
	*fs.Core[*file]
	alloc   *fs.ExtentAlloc
	journal *fs.Journal
	agCount int64
	agSize  int64

	pendingLog int // operations awaiting a delayed-logging record
}

type file struct {
	ext fs.ExtentMap
	ag  int64 // home allocation group
	// btree holds mapping-tree block addresses once the extent list
	// spills out of the inode: index 0 is the root, then leaves.
	btree []int64
}

// ExtentMap implements fs.Mapped.
func (fl *file) ExtentMap() *fs.ExtentMap { return &fl.ext }

// New formats an XFS model over totalBlocks blocks with agCount
// allocation groups (0 picks a default of 4).
func New(totalBlocks int64, agCount int64) (*FS, error) {
	if agCount <= 0 {
		agCount = 4
	}
	if totalBlocks < agCount*1024 {
		return nil, fmt.Errorf("xfssim: device too small (%d blocks for %d AGs)", totalBlocks, agCount)
	}
	f := &FS{
		alloc:   fs.NewExtentAlloc(totalBlocks),
		agCount: agCount,
		agSize:  totalBlocks / agCount,
	}
	for ag := int64(0); ag < agCount; ag++ {
		f.alloc.Reserve(ag*f.agSize, agHeaderBlocks)
	}
	// The log sits in the middle of AG 0, as mkfs.xfs places it.
	logStart := f.agSize / 2
	f.alloc.Reserve(logStart, LogBlocks)
	f.journal = fs.NewJournal(logStart, LogBlocks)
	// The root directory lives in AG 0, whatever agOf says of inode 1.
	f.Core = fs.NewCore(totalBlocks, &file{ag: 0}, fs.Layout[*file]{
		InodeBlock: f.inodeBlock,
		NewFile:    f.newFile,
		Extend:     f.extend,
		Shrink:     f.shrink,
		Free:       f.alloc.Free,
	})
	return f, nil
}

// agOf assigns inodes to allocation groups round-robin, standing in
// for XFS's rotor-based directory placement.
func (f *FS) agOf(ino fs.Ino) int64 { return int64(ino) % f.agCount }

// inodeBlock places inode records in clusters after each AG header.
func (f *FS) inodeBlock(ino fs.Ino) int64 {
	ag := f.agOf(ino)
	idx := int64(ino) / f.agCount
	return ag*f.agSize + agHeaderBlocks + idx/32
}

// newFile homes a file in its inode's allocation group.
func (f *FS) newFile(ino fs.Ino) *file { return &file{ag: f.agOf(ino)} }

// Name implements fs.FileSystem.
func (f *FS) Name() string { return "xfs" }

// ReadaheadHint implements fs.FileSystem: XFS ships a wider window
// (64 KB initial, 256 KB max).
func (f *FS) ReadaheadHint() (int64, int64) { return 16, 64 }

// logOp batches metadata operations into delayed-logging records.
func (f *FS) logOp(steps []fs.IOStep) []fs.IOStep {
	f.pendingLog++
	if f.pendingLog >= logBatch {
		f.pendingLog = 0
		steps = append(steps, f.journal.Append(1)...)
		steps = append(steps, f.journal.Commit()...)
	}
	return steps
}

// Create implements fs.FileSystem: the core's create, then its share
// of a delayed-logging record.
func (f *FS) Create(dir fs.Ino, name string, ft fs.FileType, now sim.Time) (fs.Ino, []fs.IOStep, error) {
	ino, steps, err := f.Core.Create(dir, name, ft, now)
	if err != nil {
		return 0, nil, err
	}
	return ino, f.logOp(steps), nil
}

// Resize implements fs.FileSystem, logged like Create.
func (f *FS) Resize(ino fs.Ino, size int64, now sim.Time) ([]fs.IOStep, error) {
	steps, err := f.Core.Resize(ino, size, now)
	if err != nil {
		return nil, err
	}
	return f.logOp(steps), nil
}

// Remove implements fs.FileSystem, logged like Create.
func (f *FS) Remove(dir fs.Ino, name string, now sim.Time) ([]fs.IOStep, error) {
	steps, err := f.Core.Remove(dir, name, now)
	if err != nil {
		return nil, err
	}
	return f.logOp(steps), nil
}

// extend allocates n blocks with the AG start as goal (or just past
// the file's current tail for contiguous growth).
func (f *FS) extend(ino fs.Ino, fl *file, n int64) ([]fs.IOStep, error) {
	goal := fl.ag*f.agSize + agHeaderBlocks
	if exts := fl.ext.All(); len(exts) > 0 {
		last := exts[len(exts)-1]
		goal = last.DiskBlock + last.Count
	}
	runs, err := f.alloc.Alloc(n, goal)
	if err != nil {
		return nil, err
	}
	fl.ext.Append(runs)
	steps := []fs.IOStep{
		fs.WriteStep(fl.ag*f.agSize + 1), // AGF (free-space header)
		fs.WriteStep(f.inodeBlock(ino)),
	}
	steps = append(steps, f.ensureBtree(fl)...)
	return steps, nil
}

// ensureBtree spills the extent list into a B+tree once it outgrows
// the inode, allocating tree blocks as needed.
func (f *FS) ensureBtree(fl *file) []fs.IOStep {
	nExt := fl.ext.Extents()
	if nExt <= inlineExtents {
		return nil
	}
	leaves := (nExt + extentsPerLeaf - 1) / extentsPerLeaf
	want := 1 + leaves // root + leaves
	var steps []fs.IOStep
	for len(fl.btree) < want {
		runs, err := f.alloc.Alloc(1, fl.ag*f.agSize)
		if err != nil {
			break // tree blocks are best-effort; mapping stays inline-priced
		}
		fl.btree = append(fl.btree, runs[0].Start)
		steps = append(steps, fs.WriteStep(runs[0].Start))
	}
	return steps
}

// Map implements fs.FileSystem: inline extent lists cost nothing
// beyond the (cached) inode; spilled maps cost the root plus the leaf
// covering the requested range.
func (f *FS) Map(ino fs.Ino, fileBlock, n int64) ([]fs.Extent, []fs.IOStep, error) {
	fl, ok := f.File(ino)
	if !ok {
		return nil, nil, fs.ErrBadInode
	}
	var steps []fs.IOStep
	if len(fl.btree) > 0 {
		steps = append(steps, fs.Read(fl.btree[0]))
		// Which leaf covers this offset? Extents are roughly uniform
		// in coverage; index by extent position.
		exts := fl.ext.All()
		if len(exts) > 0 {
			// Locate the first covering extent by linear proportion —
			// an approximation that keeps leaf choice stable.
			pos := int(int64(len(exts)) * fileBlock / (fl.ext.NextFileBlock() + 1))
			leaf := 1 + pos/extentsPerLeaf
			if leaf < len(fl.btree) {
				steps = append(steps, fs.Read(fl.btree[leaf]))
			}
		}
	}
	return fl.ext.Slice(fileBlock, n), steps, nil
}

// shrink frees blocks beyond wantBlocks and any mapping-tree blocks
// no longer needed.
func (f *FS) shrink(ino fs.Ino, fl *file, wantBlocks int64) []fs.IOStep {
	freed := fl.ext.TruncateTo(wantBlocks)
	for _, r := range freed {
		f.alloc.FreeRun(r.Start, r.Count)
	}
	steps := []fs.IOStep{
		fs.WriteStep(fl.ag*f.agSize + 1),
		fs.WriteStep(f.inodeBlock(ino)),
	}
	// Drop now-unneeded btree blocks.
	nExt := fl.ext.Extents()
	want := 0
	if nExt > inlineExtents {
		want = 1 + (nExt+extentsPerLeaf-1)/extentsPerLeaf
	}
	for len(fl.btree) > want {
		blk := fl.btree[len(fl.btree)-1]
		fl.btree = fl.btree[:len(fl.btree)-1]
		f.alloc.FreeRun(blk, 1)
	}
	return steps
}

// Fsync implements fs.FileSystem: force the log.
func (f *FS) Fsync(ino fs.Ino) ([]fs.IOStep, error) {
	if _, ok := f.File(ino); !ok {
		return nil, fs.ErrBadInode
	}
	f.pendingLog = 0
	steps := f.journal.Append(1)
	steps = append(steps, f.journal.Commit()...)
	return steps, nil
}

var _ fs.FileSystem = (*FS)(nil)
