// Package ext2sim models an Ext2-like file system: block-group layout
// with per-group bitmaps and inode tables, first-fit block allocation
// anchored at a goal, and classic 12-direct/three-level-indirect block
// mapping. No journal.
//
// What the model charges for, and where, is the point: data lands in
// the inode's block group (short seeks within a file), mapping large
// files costs indirect-block reads until those blocks are cached, and
// namespace operations read and dirty directory, inode-table, and
// bitmap blocks at their real relative locations.
//
// The namespace and inode operations are fs.Core's; this package
// supplies the layout: inode placement, block allocation, indirect
// blocks, and the inode-bitmap write.
package ext2sim

import (
	"fmt"
	"sort"

	"repro/internal/fs"
)

// Geometry fixes the block-group layout.
const (
	// GroupBlocks is the size of one block group (32768 × 4 KB =
	// 128 MB), as in ext2 with 4 KB blocks.
	GroupBlocks = 32768
	// InodesPerGroup matches a common mke2fs ratio.
	InodesPerGroup = 8192
	// addrsPerBlock is how many 4-byte block addresses fit one block.
	addrsPerBlock = 1024
	// groupMetaBlocks is the per-group overhead: superblock copy +
	// group descriptors (2), block bitmap (1), inode bitmap (1), and
	// the inode table (InodesPerGroup / 32 inodes per block).
	groupMetaBlocks = 4 + InodesPerGroup/32
	// directBlocks is the number of block addresses stored directly
	// in the inode.
	directBlocks = 12
)

// FS is the Ext2 model. Create instances with New.
type FS struct {
	*fs.Core[*file]
	alloc *fs.BitmapAlloc
}

type file struct {
	ext  fs.ExtentMap
	meta map[int64]int64 // meta key -> disk block of the indirect block
	goal int64           // preferred next allocation block
}

// ExtentMap implements fs.Mapped.
func (fl *file) ExtentMap() *fs.ExtentMap { return &fl.ext }

// New formats an Ext2 model over totalBlocks file-system blocks.
func New(totalBlocks int64) (*FS, error) {
	if totalBlocks < 2*GroupBlocks {
		return nil, fmt.Errorf("ext2sim: device too small (%d blocks, need >= %d)",
			totalBlocks, 2*GroupBlocks)
	}
	f := &FS{alloc: fs.NewBitmapAlloc(totalBlocks, GroupBlocks)}
	// Reserve per-group metadata regions.
	for g := int64(0); g*GroupBlocks < totalBlocks; g++ {
		start := g * GroupBlocks
		n := int64(groupMetaBlocks)
		if start+n > totalBlocks {
			n = totalBlocks - start
		}
		f.alloc.Reserve(start, n)
	}
	f.Core = fs.NewCore(totalBlocks, f.newFile(1), fs.Layout[*file]{
		InodeBlock:  f.InodeBlock,
		NewFile:     f.newFile,
		Extend:      f.extend,
		Shrink:      f.shrink,
		InodeBitmap: f.inodeBitmapBlock,
		Free:        f.alloc.Free,
	})
	return f, nil
}

// group returns the block group holding ino's inode.
func (f *FS) group(ino fs.Ino) int64 {
	return (int64(ino-1) / InodesPerGroup) % (f.alloc.Total() / GroupBlocks)
}

// InodeBlock maps an inode number to the block of its on-disk record
// within its group's inode table.
func (f *FS) InodeBlock(ino fs.Ino) int64 {
	idx := int64(ino-1) % InodesPerGroup
	return f.group(ino)*GroupBlocks + 4 + idx/32
}

// bitmapBlock returns the block-bitmap block of the group containing
// disk block b.
func (f *FS) bitmapBlock(b int64) int64 { return (b/GroupBlocks)*GroupBlocks + 2 }

// inodeBitmapBlock returns the inode-bitmap block for ino's group.
func (f *FS) inodeBitmapBlock(ino fs.Ino) int64 { return f.group(ino)*GroupBlocks + 3 }

// newFile starts a file's allocations at its inode's group data area.
func (f *FS) newFile(ino fs.Ino) *file {
	return &file{meta: make(map[int64]int64), goal: f.group(ino)*GroupBlocks + groupMetaBlocks}
}

// Name implements fs.FileSystem.
func (f *FS) Name() string { return "ext2" }

// ReadaheadHint implements fs.FileSystem: Linux-era defaults, 16 KB
// initial window growing to 128 KB.
func (f *FS) ReadaheadHint() (int64, int64) { return 4, 32 }

// extend allocates n more blocks for the file, returning the metadata
// write steps (bitmaps, new indirect blocks, inode).
func (f *FS) extend(ino fs.Ino, fl *file, n int64) ([]fs.IOStep, error) {
	runs, err := f.alloc.Alloc(n, fl.goal)
	if err != nil {
		return nil, err
	}
	var steps []fs.IOStep
	// One bitmap write per distinct group touched.
	seenGroup := map[int64]bool{}
	for _, r := range runs {
		for g := r.Start / GroupBlocks; g <= (r.Start+r.Count-1)/GroupBlocks; g++ {
			if !seenGroup[g] {
				seenGroup[g] = true
				steps = append(steps, fs.WriteStep(g*GroupBlocks+2))
			}
		}
	}
	oldBlocks, oldGoal := fl.ext.Blocks(), fl.goal
	fl.ext.Append(runs)
	fl.goal = runs[len(runs)-1].Start + runs[len(runs)-1].Count
	// Allocate indirect blocks newly needed for the grown range and
	// charge their writes (plus parent pointer updates).
	metaSteps, err := f.ensureMeta(fl, oldBlocks, fl.ext.Blocks())
	if err != nil {
		// The data fit but its indirect blocks did not: give back
		// everything this call took, so a failed extend changes
		// nothing.
		f.shrink(ino, fl, oldBlocks)
		fl.goal = oldGoal
		return nil, err
	}
	steps = append(steps, metaSteps...)
	steps = append(steps, fs.WriteStep(f.InodeBlock(ino))) // size/blocks update
	return steps, nil
}

// metaKeys returns the indirect-block keys needed to map file block k,
// root first. Key encoding: level<<32 | index.
func metaKeys(k int64) []int64 {
	if k < directBlocks {
		return nil
	}
	j := k - directBlocks
	if j < addrsPerBlock {
		return []int64{1 << 32} // the single indirect block
	}
	j -= addrsPerBlock
	if j < addrsPerBlock*addrsPerBlock {
		return []int64{
			2 << 32,                       // double-indirect root
			2<<32 | (j/addrsPerBlock + 1), // second-level block
		}
	}
	j -= addrsPerBlock * addrsPerBlock
	l2 := j / (addrsPerBlock * addrsPerBlock)
	l3 := (j / addrsPerBlock) % addrsPerBlock
	return []int64{
		3 << 32,                         // triple-indirect root
		4<<32 | l2,                      // second level
		5<<32 | (l2*addrsPerBlock + l3), // third level
	}
}

// ensureMeta allocates indirect blocks needed for file blocks
// [oldBlocks, newBlocks) and returns their write steps.
func (f *FS) ensureMeta(fl *file, oldBlocks, newBlocks int64) ([]fs.IOStep, error) {
	var steps []fs.IOStep
	// Only boundary blocks can introduce new meta keys; stepping by
	// addrsPerBlock-sized strides keeps this O(file/4MB).
	for k := oldBlocks; k < newBlocks; {
		for _, key := range metaKeys(k) {
			if _, ok := fl.meta[key]; ok {
				continue
			}
			runs, err := f.alloc.Alloc(1, fl.goal)
			if err != nil {
				return nil, err
			}
			fl.meta[key] = runs[0].Start
			steps = append(steps, fs.WriteStep(runs[0].Start))
		}
		if k < directBlocks {
			k = directBlocks
		} else {
			k += addrsPerBlock
		}
	}
	return steps, nil
}

// Map implements fs.FileSystem.
func (f *FS) Map(ino fs.Ino, fileBlock, n int64) ([]fs.Extent, []fs.IOStep, error) {
	fl, ok := f.File(ino)
	if !ok {
		return nil, nil, fs.ErrBadInode
	}
	var steps []fs.IOStep
	seen := map[int64]bool{}
	for k := fileBlock; k < fileBlock+n; {
		for _, key := range metaKeys(k) {
			if seen[key] {
				continue
			}
			seen[key] = true
			if blk, ok := fl.meta[key]; ok {
				steps = append(steps, fs.Read(blk))
			}
		}
		if k < directBlocks {
			k++
		} else {
			// Advance to the next indirect-block boundary.
			k += addrsPerBlock - ((k - directBlocks) % addrsPerBlock)
		}
	}
	return fl.ext.Slice(fileBlock, n), steps, nil
}

// shrink frees blocks beyond wantBlocks and any indirect blocks no
// longer needed.
func (f *FS) shrink(ino fs.Ino, fl *file, wantBlocks int64) []fs.IOStep {
	freed := fl.ext.TruncateTo(wantBlocks)
	var steps []fs.IOStep
	seenGroup := map[int64]bool{}
	for _, r := range freed {
		f.alloc.FreeRun(r.Start, r.Count)
		for g := r.Start / GroupBlocks; g <= (r.Start+r.Count-1)/GroupBlocks; g++ {
			if !seenGroup[g] {
				seenGroup[g] = true
				steps = append(steps, fs.WriteStep(g*GroupBlocks+2))
			}
		}
	}
	// Free meta blocks that now map nothing.
	needed := map[int64]bool{}
	for k := int64(0); k < wantBlocks; {
		for _, key := range metaKeys(k) {
			needed[key] = true
		}
		if k < directBlocks {
			k++
		} else {
			k += addrsPerBlock - ((k - directBlocks) % addrsPerBlock)
		}
	}
	// Free stale meta blocks in key order: iteration order decides
	// both the allocator's free-list state (and so every later
	// allocation) and the emitted WriteStep sequence.
	stale := make([]int64, 0, len(fl.meta))
	for key := range fl.meta {
		if !needed[key] {
			stale = append(stale, key)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, key := range stale {
		blk := fl.meta[key]
		f.alloc.FreeRun(blk, 1)
		delete(fl.meta, key)
		steps = append(steps, fs.WriteStep(f.bitmapBlock(blk)))
	}
	steps = append(steps, fs.WriteStep(f.InodeBlock(ino)))
	return steps
}

// Fsync implements fs.FileSystem: without a journal, fsync writes the
// inode (and lets the data flush, which the VFS handles) — cheap but
// unsafe, the classic ext2 trade.
func (f *FS) Fsync(ino fs.Ino) ([]fs.IOStep, error) {
	if _, ok := f.File(ino); !ok {
		return nil, fs.ErrBadInode
	}
	return []fs.IOStep{fs.SyncWrite(f.InodeBlock(ino))}, nil
}

// ReserveRange removes [start, start+count) from the data area; the
// journaled variant (ext3sim) uses it to carve out its journal file.
// The range must be free.
func (f *FS) ReserveRange(start, count int64) { f.alloc.Reserve(start, count) }

var _ fs.FileSystem = (*FS)(nil)
